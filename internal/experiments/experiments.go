// Package experiments regenerates every table and figure of the paper's
// evaluation (§V) plus the motivational Figure 2 and the collective-latency
// Figure 9. Each experiment returns structured rows, and a *Report builder
// turns the rows into the typed report layer consumed by the CLI, the HTTP
// service, benchmarks, and tests; report.Render's text format of those
// reports is the paper-style output the golden CLI fixtures pin. The
// command table (commands.go) names every experiment once for both the CLI
// and the service.
package experiments

import (
	"context"
	"fmt"
	"sync"

	"github.com/memcentric/mcdla/internal/accel"
	"github.com/memcentric/mcdla/internal/collective"
	"github.com/memcentric/mcdla/internal/core"
	"github.com/memcentric/mcdla/internal/dnn"
	"github.com/memcentric/mcdla/internal/metrics"
	"github.com/memcentric/mcdla/internal/report"
	"github.com/memcentric/mcdla/internal/runner"
	"github.com/memcentric/mcdla/internal/train"
	"github.com/memcentric/mcdla/internal/units"
)

// Paper-wide evaluation constants (§IV).
const (
	Batch   = 512
	Workers = 8
)

// designNames is the Figure 11/13 presentation order.
var designNames = []string{"DC-DLA", "HC-DLA", "MC-DLA(S)", "MC-DLA(L)", "MC-DLA(B)", "DC-DLA(O)"}

// Every generator submits its simulation grid to a shared runner engine, so
// the figures fan out across GOMAXPROCS workers and overlapping sweeps (the
// headline, Figure 12, and the sensitivity variants revisit the same
// workload × design points) hit the engine's memo cache instead of
// re-simulating.
var (
	engineMu sync.Mutex
	engine   = runner.New(runner.Options{})
	progress func(runner.Update)
)

// SetOptions replaces the package engine with one built from o: worker
// bound and, for long-running callers like the HTTP service, the LRU bound
// on the cross-request memo cache. The cache is reset with the engine.
func SetOptions(o runner.Options) {
	engineMu.Lock()
	defer engineMu.Unlock()
	engine = runner.New(o)
}

// Parallelism reports the package engine's worker bound.
func Parallelism() int { return parallelism() }

// SetProgress installs a callback that receives per-job progress from every
// generator's grid submission (nil disables streaming).
func SetProgress(fn func(runner.Update)) {
	engineMu.Lock()
	defer engineMu.Unlock()
	progress = fn
}

// EngineStats reports the shared engine's cache accounting.
func EngineStats() runner.CacheStats {
	engineMu.Lock()
	defer engineMu.Unlock()
	return engine.Stats()
}

// submit runs a job grid on the package engine under the caller's
// cancellation context: queued jobs stop being scheduled once ctx is
// cancelled, so Ctrl-C on the CLI and client disconnect on the HTTP
// service abort whole sweeps mid-grid (enforced by the ctxflow analyzer;
// see cmd/mcdla-lint).
func submit(ctx context.Context, jobs []runner.Job) ([]core.Result, error) {
	engineMu.Lock()
	e, p := engine, progress
	engineMu.Unlock()
	return e.Run(ctx, jobs, p)
}

// schedule returns the engine's memoized training schedule for a job's
// workload point, sharing the graph build with the simulation cache.
func schedule(j runner.Job) (*train.Schedule, error) {
	engineMu.Lock()
	e := engine
	engineMu.Unlock()
	return e.Schedule(j)
}

// weightBytes returns the engine's memoized weight footprint of a job's
// model, which a store hit reads without building a graph.
func weightBytes(j runner.Job) (int64, error) {
	engineMu.Lock()
	e := engine
	engineMu.Unlock()
	return e.WeightBytes(j)
}

// network returns the engine's memoized network of a workload at a
// per-device batch, sharing the graph build with every schedule on it.
func network(workload string, deviceBatch, seqlen int) (*train.Network, error) {
	engineMu.Lock()
	e := engine
	engineMu.Unlock()
	return e.Network(workload, deviceBatch, seqlen)
}

// parallelism reports the package engine's worker bound, shared by the
// non-core fan-outs (runner.Fan) so -parallel governs them too.
func parallelism() int {
	engineMu.Lock()
	defer engineMu.Unlock()
	return engine.Parallelism()
}

// runAll simulates every workload × design for one strategy at a batch size.
func runAll(ctx context.Context, strategy train.Strategy, batch int) (map[string]map[string]core.Result, error) {
	designs := core.StandardDesigns()
	jobs := runner.Grid{
		Workloads:  dnn.BenchmarkNames(),
		Designs:    designs,
		Strategies: []train.Strategy{strategy},
		Batches:    []int{batch},
		Workers:    Workers,
		Tag:        "grid",
	}.Jobs()
	rs, err := submit(ctx, jobs)
	if err != nil {
		return nil, err
	}
	out := make(map[string]map[string]core.Result)
	for i, j := range jobs {
		if out[j.Workload] == nil {
			out[j.Workload] = make(map[string]core.Result, len(designs))
		}
		out[j.Workload][j.Design.Name] = rs[i]
	}
	return out, nil
}

// ---------------------------------------------------------------- Figure 2

// Fig2Row is one device generation's result for one CNN.
type Fig2Row struct {
	Network    string
	Generation string
	// NormTime is the device execution time (no virtualization — the
	// figure's left axis measures raw device performance) normalized to
	// the network's Kepler run.
	NormTime float64
	// OverheadPct is the share of execution time lost to PCIe memory
	// virtualization: (T_virt − T_oracle) / T_virt.
	OverheadPct float64
}

// Fig2 reproduces Figure 2: single-device execution time across five
// accelerator generations with PCIe gen3 memory virtualization, and the
// virtualization overhead percentage.
func Fig2(ctx context.Context) ([]Fig2Row, error) {
	const batch = 256 // single-device motivational runs
	gens := accel.Generations()
	var jobs []runner.Job
	for _, net := range dnn.CNNNames() {
		for _, gen := range gens {
			for _, d := range []core.Design{core.NewDCDLA(gen.Config, 1), core.NewDCDLAO(gen.Config, 1)} {
				jobs = append(jobs, runner.Job{
					Design: d, Workload: net, Strategy: train.DataParallel,
					Batch: batch, Workers: 1, Tag: "fig2",
				})
			}
		}
	}
	rs, err := submit(ctx, jobs)
	if err != nil {
		return nil, err
	}
	var rows []Fig2Row
	i := 0
	for _, net := range dnn.CNNNames() {
		var keplerTime float64
		for _, gen := range gens {
			tv := rs[i].IterationTime.Seconds()
			to := rs[i+1].IterationTime.Seconds()
			i += 2
			if gen.Name == "Kepler" {
				keplerTime = to
			}
			rows = append(rows, Fig2Row{
				Network:     net,
				Generation:  gen.Name,
				NormTime:    to / keplerTime,
				OverheadPct: 100 * (tv - to) / tv,
			})
		}
	}
	return rows, nil
}

// Fig2Report builds the typed Figure 2 report.
func Fig2Report(rows []Fig2Row) *report.Report {
	t := report.NewTable("network", "generation", "time (norm. to Kepler)", "virt overhead %")
	for _, r := range rows {
		t.AddRow(report.Str(r.Network), report.Str(r.Generation),
			report.Numf("%.4f", r.NormTime), report.Numf("%.1f", r.OverheadPct))
	}
	return &report.Report{
		Name:     "fig2",
		Title:    "Figure 2: single-device execution time across accelerator generations",
		Sections: []report.Section{{Table: t}},
	}
}

// ---------------------------------------------------------------- Figure 9

// Fig9Point is one ring size's normalized latency for the three collectives.
type Fig9Point struct {
	Nodes                           int
	Broadcast, AllGather, AllReduce float64 // normalized to the 2-node ring
}

// Fig9 reproduces Figure 9: collective latency vs ring size for 4 KB
// messages at an 8 MB synchronization size over 50 GB/s bidirectional links.
func Fig9() []Fig9Point {
	cfg := func(n int) collective.Config {
		return collective.Config{
			Nodes:      n,
			Rings:      1,
			LinkBW:     units.GBps(25),
			ChunkBytes: collective.DefaultChunk,
			StepAlpha:  collective.DefaultAlpha,
		}
	}
	const sync = 8 * units.MB
	base := map[collective.Op]float64{}
	for _, op := range []collective.Op{collective.Broadcast, collective.AllGather, collective.AllReduce} {
		base[op] = collective.Latency(op, sync, cfg(2)).Seconds()
	}
	var pts []Fig9Point
	for n := 2; n <= 36; n += 2 {
		pts = append(pts, Fig9Point{
			Nodes:     n,
			Broadcast: collective.Latency(collective.Broadcast, sync, cfg(n)).Seconds() / base[collective.Broadcast],
			AllGather: collective.Latency(collective.AllGather, sync, cfg(n)).Seconds() / base[collective.AllGather],
			AllReduce: collective.Latency(collective.AllReduce, sync, cfg(n)).Seconds() / base[collective.AllReduce],
		})
	}
	return pts
}

// Fig9Report builds the typed Figure 9 report: the three collective series
// as one shared-label table, plus the paper's 16-vs-8-node headline.
func Fig9Report(pts []Fig9Point) *report.Report {
	t := report.NewTable("point", "broadcast", "all-gather", "all-reduce")
	for _, p := range pts {
		t.AddRow(report.Int(p.Nodes),
			report.Numf("%.4f", p.Broadcast), report.Numf("%.4f", p.AllGather), report.Numf("%.4f", p.AllReduce))
	}
	l8 := 0.0
	l16 := 0.0
	for _, p := range pts {
		if p.Nodes == 8 {
			l8 = p.AllReduce
		}
		if p.Nodes == 16 {
			l16 = p.AllReduce
		}
	}
	return &report.Report{
		Name:  "fig9",
		Title: "Figure 9: collective latency vs ring size (normalized to 2 nodes)",
		Sections: []report.Section{{Table: t, Notes: []string{
			fmt.Sprintf("MC-DLA (16 nodes) vs DC-DLA (8 nodes) all-reduce overhead: %.1f%% (paper: ~7%%)", 100*(l16/l8-1)),
		}}},
	}
}

// --------------------------------------------------------------- Figure 11

// Fig11Row is one stacked bar: a workload × design latency breakdown
// normalized to the tallest stack within the workload group.
type Fig11Row struct {
	Workload string
	Design   string
	Compute  float64
	Sync     float64
	Virt     float64
}

// Fig11 reproduces Figure 11(a) (data-parallel) or 11(b) (model-parallel).
func Fig11(ctx context.Context, strategy train.Strategy) ([]Fig11Row, error) {
	rs, err := runAll(ctx, strategy, Batch)
	if err != nil {
		return nil, err
	}
	var rows []Fig11Row
	for _, net := range dnn.BenchmarkNames() {
		maxStack := 0.0
		for _, dn := range designNames {
			if s := rs[net][dn].Breakdown.Total().Seconds(); s > maxStack {
				maxStack = s
			}
		}
		for _, dn := range designNames {
			b := rs[net][dn].Breakdown
			rows = append(rows, Fig11Row{
				Workload: net,
				Design:   dn,
				Compute:  b.Compute.Seconds() / maxStack,
				Sync:     b.Sync.Seconds() / maxStack,
				Virt:     b.Virt.Seconds() / maxStack,
			})
		}
	}
	return rows, nil
}

// Fig11Report builds the typed Figure 11 report.
func Fig11Report(rows []Fig11Row, strategy train.Strategy) *report.Report {
	t := report.NewTable("workload", "design", "compute", "synchronization", "memory virtualization", "stack")
	for _, r := range rows {
		t.AddRow(report.Str(r.Workload), report.Str(r.Design),
			report.Numf("%.3f", r.Compute), report.Numf("%.3f", r.Sync),
			report.Numf("%.3f", r.Virt), report.Numf("%.3f", r.Compute+r.Sync+r.Virt))
	}
	return &report.Report{
		Name:     "fig11",
		Title:    fmt.Sprintf("Figure 11 (%v): latency breakdown, normalized per workload", strategy),
		Sections: []report.Section{{Table: t}},
	}
}

// --------------------------------------------------------------- Figure 12

// Fig12Row is one workload's CPU memory bandwidth usage under one design.
type Fig12Row struct {
	Design   string
	Workload string
	// AvgDP / AvgMP are the average per-socket usages (GB/s) for the two
	// strategies; Max is the maximum across both.
	AvgDP, AvgMP, Max float64
}

// Fig12 reproduces Figure 12 for DC-DLA, HC-DLA and MC-DLA(B).
func Fig12(ctx context.Context) ([]Fig12Row, error) {
	dp, err := runAll(ctx, train.DataParallel, Batch)
	if err != nil {
		return nil, err
	}
	mp, err := runAll(ctx, train.ModelParallel, Batch)
	if err != nil {
		return nil, err
	}
	var rows []Fig12Row
	for _, dn := range []string{"DC-DLA", "HC-DLA", "MC-DLA(B)"} {
		for _, net := range dnn.BenchmarkNames() {
			a, b := dp[net][dn], mp[net][dn]
			max := a.MaxHostSocketBW.GBps()
			if m := b.MaxHostSocketBW.GBps(); m > max {
				max = m
			}
			rows = append(rows, Fig12Row{
				Design:   dn,
				Workload: net,
				AvgDP:    a.AvgHostSocketBW.GBps(),
				AvgMP:    b.AvgHostSocketBW.GBps(),
				Max:      max,
			})
		}
	}
	return rows, nil
}

// Fig12Report builds the typed Figure 12 report.
func Fig12Report(rows []Fig12Row) *report.Report {
	t := report.NewTable("design", "workload", "avg DP (GB/s)", "avg MP (GB/s)", "max (GB/s)")
	for _, r := range rows {
		t.AddRow(report.Str(r.Design), report.Str(r.Workload),
			report.Numf("%.1f", r.AvgDP), report.Numf("%.1f", r.AvgMP), report.Numf("%.1f", r.Max))
	}
	return &report.Report{
		Name:     "fig12",
		Title:    "Figure 12: CPU memory bandwidth usage per socket",
		Sections: []report.Section{{Table: t}},
	}
}

// --------------------------------------------------------------- Figure 13

// Fig13Row is one workload × design performance bar, normalized to the
// oracle DC-DLA(O).
type Fig13Row struct {
	Workload    string
	Design      string
	Performance float64
}

// Fig13 reproduces Figure 13(a)/(b).
func Fig13(ctx context.Context, strategy train.Strategy) ([]Fig13Row, []float64, error) {
	rs, err := runAll(ctx, strategy, Batch)
	if err != nil {
		return nil, nil, err
	}
	var rows []Fig13Row
	var speedups []float64
	for _, net := range dnn.BenchmarkNames() {
		oracle := rs[net]["DC-DLA(O)"]
		for _, dn := range designNames {
			rows = append(rows, Fig13Row{
				Workload:    net,
				Design:      dn,
				Performance: rs[net][dn].Performance(oracle),
			})
		}
		speedups = append(speedups,
			rs[net]["DC-DLA"].IterationTime.Seconds()/rs[net]["MC-DLA(B)"].IterationTime.Seconds())
	}
	return rows, speedups, nil
}

// Fig13Report builds the typed Figure 13 report.
func Fig13Report(rows []Fig13Row, speedups []float64, strategy train.Strategy) *report.Report {
	t := report.NewTable("workload", "design", "performance (norm. to DC-DLA(O))")
	for _, r := range rows {
		t.AddRow(report.Str(r.Workload), report.Str(r.Design), report.Numf("%.3f", r.Performance))
	}
	mean := metrics.HarmonicMean(speedups)
	return &report.Report{
		Name:  "fig13",
		Title: fmt.Sprintf("Figure 13 (%v): performance normalized to the oracle", strategy),
		Sections: []report.Section{{Table: t, Notes: []string{
			fmt.Sprintf("Harmonic-mean MC-DLA(B) speedup over DC-DLA: %.2fx", mean),
		}}},
	}
}

// --------------------------------------------------------------- Figure 14

// Fig14Row is MC-DLA(B)'s speedup over DC-DLA for one workload × batch.
type Fig14Row struct {
	Batch    int
	Workload string // "HarMean" for the aggregate entry
	DP, MP   float64
}

// Fig14Batches are the sensitivity batch sizes of Figure 14.
var Fig14Batches = []int{128, 256, 1024, 2048}

// Fig14 reproduces the batch-size sensitivity study.
func Fig14(ctx context.Context) ([]Fig14Row, error) {
	strategies := []train.Strategy{train.DataParallel, train.ModelParallel}
	designs := []core.Design{mustDesign("DC-DLA"), mustDesign("MC-DLA(B)")}
	var jobs []runner.Job
	for _, batch := range Fig14Batches {
		for _, net := range dnn.BenchmarkNames() {
			for _, strategy := range strategies {
				for _, d := range designs {
					jobs = append(jobs, runner.Job{
						Design: d, Workload: net, Strategy: strategy,
						Batch: batch, Workers: Workers, Tag: "fig14",
					})
				}
			}
		}
	}
	rs, err := submit(ctx, jobs)
	if err != nil {
		return nil, err
	}
	var rows []Fig14Row
	i := 0
	for _, batch := range Fig14Batches {
		var dps, mps []float64
		for _, net := range dnn.BenchmarkNames() {
			row := Fig14Row{Batch: batch, Workload: net}
			for _, strategy := range strategies {
				sp := rs[i].IterationTime.Seconds() / rs[i+1].IterationTime.Seconds()
				i += 2
				if strategy == train.DataParallel {
					row.DP = sp
					dps = append(dps, sp)
				} else {
					row.MP = sp
					mps = append(mps, sp)
				}
			}
			rows = append(rows, row)
		}
		rows = append(rows, Fig14Row{
			Batch: batch, Workload: "HarMean",
			DP: metrics.HarmonicMean(dps), MP: metrics.HarmonicMean(mps),
		})
	}
	return rows, nil
}

// Fig14Report builds the typed Figure 14 report.
func Fig14Report(rows []Fig14Row) *report.Report {
	t := report.NewTable("batch", "workload", "DP speedup", "MP speedup")
	for _, r := range rows {
		t.AddRow(report.Int(r.Batch), report.Str(r.Workload),
			report.Numf("%.2f", r.DP), report.Numf("%.2f", r.MP))
	}
	return &report.Report{
		Name:     "fig14",
		Title:    "Figure 14: MC-DLA(B) speedup over DC-DLA vs input batch size",
		Sections: []report.Section{{Table: t}},
	}
}

func mustDesign(name string) core.Design {
	d, err := core.DesignByName(name)
	if err != nil {
		panic(err)
	}
	return d
}
