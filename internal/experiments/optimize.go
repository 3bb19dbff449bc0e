package experiments

import (
	"context"
	"fmt"

	"github.com/memcentric/mcdla/internal/accel"
	"github.com/memcentric/mcdla/internal/core"
	"github.com/memcentric/mcdla/internal/dse"
	"github.com/memcentric/mcdla/internal/report"
	"github.com/memcentric/mcdla/internal/train"
)

// DefaultOptimizeSpace is the optimizer's default study: the PCIe baseline
// against the proposed memory-centric ring on the paper workload, sweeping
// link signaling, memory-node population and DIMM choice (the capacity/cost
// axes), cDMA compression on the host path, and the training precision.
// The precision axis is the study's built-in dominated region: a wider
// format costs the same and runs strictly slower, which is exactly what the
// greedy search prunes without simulating.
func DefaultOptimizeSpace() dse.Space {
	return dse.Space{
		Workloads:  []string{"VGG-E"},
		Designs:    []string{"DC-DLA", "MC-DLA(B)"},
		Strategies: []train.Strategy{train.DataParallel},
		Batches:    []int{Batch},
		Precisions: train.Precisions(),
		LinkGBps:   []float64{25, 50},
		MemNodes:   []int{4, 8},
		DIMMs:      []string{"32GB-LRDIMM", "128GB-LRDIMM"},
		Compress:   []bool{false, true},
	}
}

// Optimize runs a design-space search on the shared engine, so optimizer
// candidates share the memo cache (and the -parallel worker bound) with
// every other study, and the progress stream with the CLI. The context
// aborts queued simulations: Ctrl-C on the CLI, client disconnect on the
// HTTP service.
func Optimize(ctx context.Context, space dse.Space, opts dse.Options) (dse.Result, error) {
	engineMu.Lock()
	e, p := engine, progress
	engineMu.Unlock()
	if opts.Progress == nil {
		opts.Progress = p
	}
	return dse.Search(ctx, e, space, opts)
}

// OptimizeReport builds the typed optimizer report: the objective-ordered
// Pareto frontier with each row's full `mcdla run` recipe, and the search
// accounting (candidates, simulated, pruned, dominated). Under the surrogate
// search the table gains a provenance column — "simulated" rows are event-
// engine results, "predicted" rows are frontier candidates the simulation
// budget left unconfirmed — and the unconfirmed rows trail the confirmed
// frontier. The other drivers keep the pre-surrogate layout byte-identical.
func OptimizeReport(res dse.Result) *report.Report {
	surrogate := res.Search == dse.Surrogate
	columns := []string{"rank", "design", "workload", "precision", "links",
		"memory", "cDMA", "samples/s", "cost (k$)", "power (kW)", "energy (J/iter)",
		"pool (TB)", "perf/$k", "perf/W", "recipe"}
	if surrogate {
		columns = append(columns, "source")
	}
	t := report.NewTable(columns...)
	addRow := func(rank int, e dse.Evaluated) {
		m := e.Metrics
		cells := []report.Cell{report.Int(rank),
			report.Str(e.Point.Design),
			report.Str(e.Point.Workload),
			report.Str(e.Point.Precision.String()),
			report.Str(linksCell(e.Point)),
			report.Str(memoryCell(e.Point)),
			report.Str(cdmaCell(e.Point)),
			report.Numf("%.0f", m.Throughput),
			report.Numf("%.1f", m.CostUSD/1000),
			report.Numf("%.2f", m.PowerW/1000),
			report.Numf("%.1f", m.EnergyJ),
			report.Numf("%.2f", m.CapacityTB),
			report.Numf("%.2f", m.PerfPerDollar()),
			report.Numf("%.3f", m.PerfPerWatt()),
			report.Str(e.Point.Recipe())}
		if surrogate {
			cells = append(cells, report.Str(e.Source))
		}
		t.AddRow(cells...)
	}
	for i, e := range res.Frontier {
		addRow(i+1, e)
	}
	for i, e := range res.PredictedFrontier {
		addRow(len(res.Frontier)+i+1, e)
	}
	notes := []string{
		fmt.Sprintf("objective: %v; search: %v; constraints: %v", res.Objective, res.Search, res.Constraints),
		fmt.Sprintf("candidates: %d; simulated: %d; pruned by cost/power bounds: %d; below throughput floor: %d",
			res.GridSize, res.Simulated, res.Pruned, res.Infeasible),
		fmt.Sprintf("frontier: %d points; dominated: %d", len(res.Frontier), res.Dominated),
	}
	if surrogate {
		notes = append(notes, fmt.Sprintf("surrogate: %d refinement rounds; unconfirmed predicted frontier rows: %d",
			res.Rounds, len(res.PredictedFrontier)))
	}
	if len(res.Frontier) > 0 {
		best := res.Frontier[0]
		notes = append(notes, fmt.Sprintf("best %v: %.3f — %s",
			res.Objective, res.Objective.Score(best.Metrics), best.Point.Recipe()))
	} else {
		notes = append(notes, "no feasible candidate satisfies the constraints")
	}
	return &report.Report{
		Name:  "optimize",
		Title: "Design-space optimizer: Pareto frontier over {throughput, cost, energy/iter, pool capacity}",
		Sections: []report.Section{{
			Table: t,
			Notes: notes,
		}},
	}
}

// linksCell prints the candidate's link complex as N×B; defaults show the
// Table II values.
func linksCell(p dse.Point) string {
	dev := accel.Default()
	n, b := p.Links, p.LinkGBps
	if n == 0 {
		n = dev.Links
	}
	if b == 0 {
		b = dev.LinkBW.GBps()
	}
	return fmt.Sprintf("%dx%g", n, b)
}

// memoryCell prints the candidate's backing store: the memory-node
// population for the memory-centric designs, the host pool otherwise. The
// family resolves from the base constructor alone — no need to re-derive
// the full design point (which would rebuild the workload graph for
// compressed candidates) just to label a row.
func memoryCell(p dse.Point) string {
	workers := p.Workers
	if workers <= 0 {
		workers = dse.DefaultWorkers
	}
	d, err := core.DesignFor(p.Design, accel.Default(), workers)
	if err != nil {
		return "?"
	}
	if d.Oracle {
		return "oracle"
	}
	if d.MemNodes == 0 {
		return "host DRAM"
	}
	n := p.MemNodes
	if n == 0 {
		n = d.MemNodes
	}
	name := p.DIMM
	if name == "" {
		name = d.MemNode.DIMM.Name
	}
	return fmt.Sprintf("%dx%s", n, name)
}

func cdmaCell(p dse.Point) string {
	if p.Compress {
		return "yes"
	}
	return "-"
}
