package experiments

import (
	"context"
	"fmt"

	"github.com/memcentric/mcdla/internal/accel"
	"github.com/memcentric/mcdla/internal/core"
	"github.com/memcentric/mcdla/internal/dnn"
	"github.com/memcentric/mcdla/internal/metrics"
	"github.com/memcentric/mcdla/internal/report"
	"github.com/memcentric/mcdla/internal/runner"
	"github.com/memcentric/mcdla/internal/scaleout"
	"github.com/memcentric/mcdla/internal/train"
	"github.com/memcentric/mcdla/internal/units"
)

// ExploreRow is one point of the §III-B design-space sweep: the paper calls
// a full exploration "beyond the scope of this paper"; this is the tool for
// it. Each point re-derives the MC-DLA(B) design from a hypothetical link
// technology (N links of B GB/s per node) and reports its speedup over the
// correspondingly-equipped DC-DLA.
type ExploreRow struct {
	Links   int
	LinkBW  float64 // GB/s
	VirtBW  float64 // derived N×B
	Speedup float64 // harmonic mean over the 8 workloads, data-parallel
}

// Explore sweeps link counts and per-link bandwidths as one runner grid.
func Explore(ctx context.Context, linkCounts []int, linkGBps []float64) ([]ExploreRow, error) {
	var jobs []runner.Job
	for _, n := range linkCounts {
		for _, b := range linkGBps {
			dev := accel.Default()
			dev.Links = n
			dev.LinkBW = units.GBps(b)
			for _, net := range dnn.BenchmarkNames() {
				for _, d := range []core.Design{core.NewDCDLA(dev, Workers), core.NewMCDLAB(dev, Workers)} {
					jobs = append(jobs, runner.Job{
						Design: d, Workload: net, Strategy: train.DataParallel,
						Batch: Batch, Workers: Workers, Tag: "explore",
					})
				}
			}
		}
	}
	rs, err := submit(ctx, jobs)
	if err != nil {
		return nil, err
	}
	var rows []ExploreRow
	i := 0
	for _, n := range linkCounts {
		for _, b := range linkGBps {
			var sp []float64
			for range dnn.BenchmarkNames() {
				sp = append(sp, rs[i].IterationTime.Seconds()/rs[i+1].IterationTime.Seconds())
				i += 2
			}
			rows = append(rows, ExploreRow{
				Links:   n,
				LinkBW:  b,
				VirtBW:  float64(n) * b,
				Speedup: metrics.HarmonicMean(sp),
			})
		}
	}
	return rows, nil
}

// ExploreReport builds the typed §III-B design-space report.
func ExploreReport(rows []ExploreRow) *report.Report {
	t := report.NewTable("links N", "B (GB/s)", "virt N*B", "MC-DLA(B) speedup")
	for _, r := range rows {
		t.AddRow(report.Int(r.Links), report.Numf("%.0f", r.LinkBW),
			report.Numf("%.0f", r.VirtBW), report.Num(fmt.Sprintf("%.2fx", r.Speedup), r.Speedup))
	}
	return &report.Report{
		Name:  "explore",
		Title: "Design-space exploration (§III-B): link technology vs MC-DLA(B) advantage",
		Sections: []report.Section{{Table: t, Notes: []string{
			"The memory-centric advantage scales with the signaling technology —",
			"the paper's argument that MC-DLA, unlike host-attached designs, is not",
			"capped by CPU socket bandwidth.",
		}}},
	}
}

// ScaleOutBatch picks the study's global batch: divisible by every plane
// size so the sweep stays strong scaling.
func ScaleOutBatch(nodeCounts []int) int {
	maxNodes := 0
	for _, n := range nodeCounts {
		if n > maxNodes {
			maxNodes = n
		}
	}
	return 8 * maxNodes * 64
}

// plane returns the Figure 15 plane of n system nodes reading its schedules
// from the package engine's memo, so every plane size of a request shares
// the engine's networks and memory plans.
func plane(n int) scaleout.Plane {
	p := scaleout.Default(n)
	p.Schedules = schedule
	return p
}

// ScaleOutRows runs the §VI plane study for the CLI on the event-driven
// plane engine (analytic selects the retired first-order estimator instead).
// The plane sizes fan out across the runner's worker bound.
func ScaleOutRows(ctx context.Context, workload string, nodeCounts []int, analytic bool) ([]scaleout.ScalingPoint, error) {
	batch := ScaleOutBatch(nodeCounts)
	pts, err := runner.Fan(ctx, parallelism(), len(nodeCounts), func(i int) (scaleout.ScalingPoint, error) {
		return plane(nodeCounts[i]).EvalPoint(workload, batch, analytic)
	})
	if err != nil {
		return nil, err
	}
	scaleout.FillSpeedups(pts)
	return pts, nil
}

// ScaleOutReport builds the typed §VI plane report.
func ScaleOutReport(workload string, pts []scaleout.ScalingPoint, analytic bool) *report.Report {
	t := report.NewTable("system nodes", "devices", "DC-plane iter", "MC-plane iter", "DC speedup", "MC speedup", "pool (TB)")
	for _, p := range pts {
		t.AddRow(report.Int(p.SystemNodes), report.Int(p.Devices),
			report.Time(p.IterDC), report.Time(p.IterMC),
			report.Num(fmt.Sprintf("%.2fx", p.SpeedupDC), p.SpeedupDC),
			report.Num(fmt.Sprintf("%.2fx", p.SpeedupMC), p.SpeedupMC),
			report.Numf("%.1f", p.PoolTB))
	}
	engine := "event-driven plane engine"
	if analytic {
		engine = "retired first-order estimator (-analytic)"
	}
	return &report.Report{
		Name:     "plane",
		Title:    fmt.Sprintf("Scale-out plane (§VI, Figure 15): %s strong scaling across system nodes [%s]", workload, engine),
		Sections: []report.Section{{Table: t}},
	}
}

// ScaleOutCompareRow tables one plane size's analytic-vs-event-driven
// MC-plane iteration times, plus the event engine's hybrid-parallel point.
type ScaleOutCompareRow struct {
	SystemNodes int
	Devices     int
	Analytic    units.Time
	Event       units.Time
	Hybrid      units.Time // zero when the plane cannot run hybrid
	// DivergencePct is (Event − Analytic) / Analytic.
	DivergencePct float64
}

// ScaleOutCompare runs both engines over the MC-plane so EXPERIMENTS.md can
// table where the additive estimate and the contention-aware simulation part
// ways. event may carry an already-computed event-driven study over the same
// node counts (the CLI passes ScaleOutRows' result) so the expensive
// simulations are not repeated; pass nil to simulate here.
func ScaleOutCompare(ctx context.Context, workload string, nodeCounts []int, event []scaleout.ScalingPoint) ([]ScaleOutCompareRow, error) {
	batch := ScaleOutBatch(nodeCounts)
	return runner.Fan(ctx, parallelism(), len(nodeCounts), func(i int) (ScaleOutCompareRow, error) {
		p := plane(nodeCounts[i])
		est, err := p.Estimate(workload, batch, true)
		if err != nil {
			return ScaleOutCompareRow{}, err
		}
		var eventIter units.Time
		if len(event) == len(nodeCounts) && event[i].SystemNodes == p.SystemNodes {
			eventIter = event[i].IterMC
		} else {
			sim, err := p.Simulate(workload, batch, true, scaleout.DataParallel)
			if err != nil {
				return ScaleOutCompareRow{}, err
			}
			eventIter = sim.Iteration
		}
		row := ScaleOutCompareRow{
			SystemNodes:   p.SystemNodes,
			Devices:       p.TotalDevices(),
			Analytic:      est.Iteration,
			Event:         eventIter,
			DivergencePct: 100 * (eventIter.Seconds() - est.Iteration.Seconds()) / est.Iteration.Seconds(),
		}
		if p.SystemNodes > 1 && batch%p.SystemNodes == 0 {
			if hy, err := p.Simulate(workload, batch, true, scaleout.Hybrid); err == nil {
				row.Hybrid = hy.Iteration
			}
		}
		return row, nil
	})
}

// ScaleOutCompareReport builds the typed engine-comparison report.
func ScaleOutCompareReport(workload string, rows []ScaleOutCompareRow) *report.Report {
	t := report.NewTable("system nodes", "devices", "analytic", "event-driven", "divergence", "hybrid (event)")
	for _, r := range rows {
		hybrid := report.Str("-")
		if r.Hybrid > 0 {
			hybrid = report.Time(r.Hybrid)
		}
		t.AddRow(report.Int(r.SystemNodes), report.Int(r.Devices),
			report.Time(r.Analytic), report.Time(r.Event),
			report.Num(fmt.Sprintf("%+.1f%%", r.DivergencePct), r.DivergencePct), hybrid)
	}
	return &report.Report{
		Name:  "plane-compare",
		Title: fmt.Sprintf("MC-plane: analytic estimate vs event-driven simulation (%s)", workload),
		Sections: []report.Section{{Table: t, Notes: []string{
			"Divergence grows where the additive formula cannot see contention —",
			"shared switch links under the dW laps and all local ranks' shard rings",
			"on one uplink.",
		}}},
	}
}
