// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation. Each benchmark regenerates its artifact end to end inside the
// timing loop and reports the artifact's headline number as a custom metric,
// so `go test -bench=. -benchmem` reproduces both the cost of the simulation
// and the paper-comparable results:
//
//	BenchmarkFig13DP  ...  speedup-x 3.37   (paper: 3.5)
//
// Ablation benchmarks at the bottom quantify the design choices DESIGN.md
// calls out: BW_AWARE vs LOCAL placement, the recompute-cheap-layers
// exception, and shared-link contention.
package mcdla_test

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"github.com/memcentric/mcdla/internal/accel"
	"github.com/memcentric/mcdla/internal/collective"
	"github.com/memcentric/mcdla/internal/core"
	"github.com/memcentric/mcdla/internal/cost"
	"github.com/memcentric/mcdla/internal/dnn"
	"github.com/memcentric/mcdla/internal/dse"
	"github.com/memcentric/mcdla/internal/experiments"
	"github.com/memcentric/mcdla/internal/fleet"
	"github.com/memcentric/mcdla/internal/metrics"
	"github.com/memcentric/mcdla/internal/obs"
	"github.com/memcentric/mcdla/internal/power"
	"github.com/memcentric/mcdla/internal/runner"
	"github.com/memcentric/mcdla/internal/scaleout"
	"github.com/memcentric/mcdla/internal/sim"
	"github.com/memcentric/mcdla/internal/store"
	"github.com/memcentric/mcdla/internal/trace"
	"github.com/memcentric/mcdla/internal/train"
	"github.com/memcentric/mcdla/internal/units"
	"github.com/memcentric/mcdla/internal/vmem"
)

// BenchmarkFig2 regenerates the motivational figure: single-device execution
// across five accelerator generations. Metric: Volta-era PCIe
// memory-virtualization overhead (paper right axis: large and growing).
func BenchmarkFig2(b *testing.B) {
	var overhead float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig2(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Generation == "Volta" && r.Network == "VGG-E" {
				overhead = r.OverheadPct
			}
		}
	}
	b.ReportMetric(overhead, "volta-overhead-%")
}

// BenchmarkFig9 regenerates the collective-latency figure. Metric: the
// 16-vs-8-node all-reduce overhead (paper: ≈7%).
func BenchmarkFig9(b *testing.B) {
	var overhead float64
	for i := 0; i < b.N; i++ {
		pts := experiments.Fig9()
		var l8, l16 float64
		for _, p := range pts {
			if p.Nodes == 8 {
				l8 = p.AllReduce
			}
			if p.Nodes == 16 {
				l16 = p.AllReduce
			}
		}
		overhead = 100 * (l16/l8 - 1)
	}
	b.ReportMetric(overhead, "16v8-overhead-%")
}

func benchFig11(b *testing.B, strategy train.Strategy) {
	var virtShare float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig11(context.Background(), strategy)
		if err != nil {
			b.Fatal(err)
		}
		// Metric: DC-DLA's average virtualization share of its stack.
		var sum float64
		var n int
		for _, r := range rows {
			if r.Design == "DC-DLA" {
				sum += r.Virt / (r.Compute + r.Sync + r.Virt)
				n++
			}
		}
		virtShare = 100 * sum / float64(n)
	}
	b.ReportMetric(virtShare, "dcdla-virt-share-%")
}

// BenchmarkFig11DP regenerates the data-parallel latency breakdowns.
func BenchmarkFig11DP(b *testing.B) { benchFig11(b, train.DataParallel) }

// BenchmarkFig11MP regenerates the model-parallel latency breakdowns.
func BenchmarkFig11MP(b *testing.B) { benchFig11(b, train.ModelParallel) }

// BenchmarkFig12 regenerates the CPU-memory-bandwidth figure. Metric: the
// worst HC-DLA socket usage (paper: ≈92% of 300 GB/s).
func BenchmarkFig12(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig12(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, r := range rows {
			if r.Design == "HC-DLA" && r.AvgDP > worst {
				worst = r.AvgDP
			}
		}
	}
	b.ReportMetric(worst, "hcdla-max-GB/s")
}

func benchFig13(b *testing.B, strategy train.Strategy) {
	var headline float64
	for i := 0; i < b.N; i++ {
		_, speedups, err := experiments.Fig13(context.Background(), strategy)
		if err != nil {
			b.Fatal(err)
		}
		headline = metrics.HarmonicMean(speedups)
	}
	b.ReportMetric(headline, "speedup-x")
}

// BenchmarkFig13DP regenerates Figure 13(a). Metric: the 3.5× headline.
func BenchmarkFig13DP(b *testing.B) { benchFig13(b, train.DataParallel) }

// BenchmarkFig13MP regenerates Figure 13(b). Metric: the 2.1× headline.
func BenchmarkFig13MP(b *testing.B) { benchFig13(b, train.ModelParallel) }

// BenchmarkFig14 regenerates the batch-size sensitivity sweep. Metric: the
// across-batch average speedup (paper: 2.17×).
func BenchmarkFig14(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig14(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		var n int
		for _, r := range rows {
			if r.Workload == "HarMean" {
				sum += (r.DP + r.MP) / 2
				n++
			}
		}
		avg = sum / float64(n)
	}
	b.ReportMetric(avg, "avg-speedup-x")
}

// BenchmarkTable4 regenerates the power analysis. Metric: the 128 GB LRDIMM
// node's GB/W (paper: 10.1).
func BenchmarkTable4(b *testing.B) {
	var gbw float64
	for i := 0; i < b.N; i++ {
		gbw = power.HighCapacityChoice().GBPerWatt
	}
	b.ReportMetric(gbw, "GB/W")
}

// BenchmarkHeadline regenerates the §V-B aggregate. Metric: the combined
// average speedup (paper: 2.8×).
func BenchmarkHeadline(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		h, err := experiments.RunHeadline(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		avg = h.Average["MC-DLA(B)"]
	}
	b.ReportMetric(avg, "avg-speedup-x")
}

// BenchmarkSensitivity regenerates the §V-B design-variant sweep. Metric:
// the PCIe gen4 gap (paper: 2.1×).
func BenchmarkSensitivity(b *testing.B) {
	var gen4 float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Sensitivity(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Variant == "DC-DLA with PCIe gen4" {
				gen4 = r.Gap
			}
		}
	}
	b.ReportMetric(gen4, "gen4-gap-x")
}

// BenchmarkScalability regenerates the §V-D experiment. Metric: DC-DLA's
// virtualized 8-GPU scaling (paper: 2.7×).
func BenchmarkScalability(b *testing.B) {
	var sp float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Scalability(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		var n int
		for _, r := range rows {
			if r.GPUs == 8 {
				sum += r.SpeedupVirt
				n++
			}
		}
		sp = sum / float64(n)
	}
	b.ReportMetric(sp, "8gpu-virt-scaling-x")
}

// ---- Runner fan-out ---------------------------------------------------------

// fanoutGrid is the Figure 13 data-parallel plane (8 workloads × 6 designs),
// the grid every full-evaluation command walks.
func fanoutGrid() []runner.Job {
	return runner.Grid{
		Workloads:  dnn.BenchmarkNames(),
		Designs:    core.StandardDesigns(),
		Strategies: []train.Strategy{train.DataParallel},
		Batches:    []int{512},
		Workers:    8,
	}.Jobs()
}

func benchRunner(b *testing.B, parallelism int) {
	jobs := fanoutGrid()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh engine per iteration measures simulation throughput, not
		// memoization.
		e := runner.New(runner.Options{Parallelism: parallelism})
		if _, err := e.Run(context.Background(), jobs, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(jobs))*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkRunnerSequential is the single-worker reference for the fan-out.
func BenchmarkRunnerSequential(b *testing.B) { benchRunner(b, 1) }

// BenchmarkRunnerFanout submits the same grid across GOMAXPROCS workers; on a
// multi-core host its jobs/s metric beats BenchmarkRunnerSequential's.
func BenchmarkRunnerFanout(b *testing.B) { benchRunner(b, 0) }

// BenchmarkRunnerCached measures a warm engine: after the first pass every
// job in the grid is served by the memo cache.
func BenchmarkRunnerCached(b *testing.B) {
	jobs := fanoutGrid()
	e := runner.New(runner.Options{})
	if _, err := e.Run(context.Background(), jobs, nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(context.Background(), jobs, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(jobs))*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// ---- Microbenchmarks: simulator throughput per workload --------------------

// benchSimulate times untraced iterations on design, then reports the
// water-fill rounds and flow visits of one traced run outside the timer:
// exact work counters that benchgate holds equal to the baseline.
func benchSimulate(b *testing.B, design, workload string, strategy train.Strategy) {
	s := train.MustBuild(workload, 512, 8, strategy)
	d, err := core.DesignByName(design)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Simulate(d, s); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	tr := &trace.Log{}
	if _, err := core.SimulateTraced(d, s, tr); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(tr.Fills), "fills/op")
	b.ReportMetric(float64(tr.Visits), "visits/op")
}

func BenchmarkSimulateAlexNetDP(b *testing.B) {
	benchSimulate(b, "MC-DLA(B)", "AlexNet", train.DataParallel)
}

func BenchmarkSimulateGoogLeNetDP(b *testing.B) {
	benchSimulate(b, "MC-DLA(B)", "GoogLeNet", train.DataParallel)
}

func BenchmarkSimulateVGGEDP(b *testing.B) {
	benchSimulate(b, "MC-DLA(B)", "VGG-E", train.DataParallel)
}

func BenchmarkSimulateResNetDP(b *testing.B) {
	benchSimulate(b, "MC-DLA(B)", "ResNet", train.DataParallel)
}

func BenchmarkSimulateGRUMP(b *testing.B) {
	benchSimulate(b, "MC-DLA(B)", "RNN-GRU", train.ModelParallel)
}

// BenchmarkSimulateVGGEDPHost runs VGG-E on DC-DLA, whose offloads and
// prefetches share the host channel as unshared per-DMA flows: the channel
// that does most of a study grid's flow visits.
func BenchmarkSimulateVGGEDPHost(b *testing.B) {
	benchSimulate(b, "DC-DLA", "VGG-E", train.DataParallel)
}

// BenchmarkSimulateGRUDPHost runs RNN-GRU data parallel on DC-DLA, the
// costliest single simulation of a study grid: its host channel carries
// up to 357 offload and prefetch flows at a time, all in one group and
// one class.
func BenchmarkSimulateGRUDPHost(b *testing.B) {
	benchSimulate(b, "DC-DLA", "RNN-GRU", train.DataParallel)
}

// BenchmarkChannelFill times the fill on a host-like channel: 12 GB/s with
// one unshared 3 GB/s group and 56 flows in flight, the host channel's
// average in a study grid. The 3 GB/s member rate is the §V-D socket share
// of four devices on one socket; default DC-DLA's DMA group runs at the
// full 12 GB/s. The flows start staggered, 1 MB apart, so they land one at
// a time in start order. One op waits for the oldest flow and starts a
// 56 MB replacement: one completion and one start, two fills. All 56 sit
// in one group and one class, so they ride the channel's virtual clock:
// the op is one heap pop and one push, two visits, whatever the number in
// flight. The stamp table grows by doubling, less than one allocation per
// op, so the loop holds 0 allocs/op.
func BenchmarkChannelFill(b *testing.B) {
	const inFlight = 56
	ch := sim.NewChannel("host", units.GBps(12))
	dma := ch.Group(units.GBps(3), false)
	var ring [inFlight]sim.Flow
	for i := range ring {
		ring[i] = ch.Start(0, dma, units.Bytes(i+1)*units.MB, 0, 0)
	}
	var t units.Time
	start := ch.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % inFlight
		t = ch.Wait(t, ring[k])
		ring[k] = ch.Start(t, dma, inFlight*units.MB, 0, 0)
	}
	b.StopTimer()
	end := ch.Stats()
	for _, f := range ring {
		if ch.Wait(t, f) <= t {
			b.Fatalf("a flow finished by %v, want all %d in flight", t, inFlight)
		}
	}
	b.ReportMetric(float64(end.Fills-start.Fills)/float64(b.N), "fills/op")
	b.ReportMetric(float64(end.Visits-start.Visits)/float64(b.N), "visits/op")
}

// BenchmarkTransformerSimulate times one BERT-Large-class training iteration
// through the engine (the longest single-node workload of the new axis).
// Metric: MC-DLA(B)'s speedup over DC-DLA at the default 512-token sequence —
// the gap cDMA cannot close because attention tensors are dense.
func BenchmarkTransformerSimulate(b *testing.B) {
	s := train.MustBuild("BERT-Large", 512, 8, train.DataParallel)
	mc, err := core.DesignByName("MC-DLA(B)")
	if err != nil {
		b.Fatal(err)
	}
	dc, err := core.DesignByName("DC-DLA")
	if err != nil {
		b.Fatal(err)
	}
	var sp float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rm, err := core.Simulate(mc, s)
		if err != nil {
			b.Fatal(err)
		}
		rd, err := core.Simulate(dc, s)
		if err != nil {
			b.Fatal(err)
		}
		sp = rd.IterationTime.Seconds() / rm.IterationTime.Seconds()
	}
	b.ReportMetric(sp, "bert-speedup-x")
}

// BenchmarkPrecisionSweep times the precision axis end to end on GPT-2.
// Metric: the FP32/FP16 iteration-time ratio on MC-DLA(B) — how much the
// halved activation and gradient bytes buy.
func BenchmarkPrecisionSweep(b *testing.B) {
	d, err := core.DesignByName("MC-DLA(B)")
	if err != nil {
		b.Fatal(err)
	}
	scheds := make(map[train.Precision]*train.Schedule)
	for _, prec := range train.Precisions() {
		s, err := train.BuildSeq("GPT-2", 512, 8, train.DataParallel, 0, prec)
		if err != nil {
			b.Fatal(err)
		}
		scheds[prec] = s
	}
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		times := make(map[train.Precision]float64)
		for _, prec := range train.Precisions() {
			r, err := core.Simulate(d, scheds[prec])
			if err != nil {
				b.Fatal(err)
			}
			times[prec] = r.IterationTime.Seconds()
		}
		ratio = times[train.FP32] / times[train.FP16]
	}
	b.ReportMetric(ratio, "fp32-over-fp16-x")
}

// BenchmarkBuildNetworks measures workload construction (DAG + shape
// inference) across the Table III registry.
func BenchmarkBuildNetworks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, name := range dnn.BenchmarkNames() {
			dnn.MustBuild(name, 512)
		}
	}
}

// ---- Ablations --------------------------------------------------------------

// BenchmarkAblationPlacement quantifies BW_AWARE vs LOCAL page placement
// (the Figure 10 / §V-B MC-DLA(L)-vs-(B) comparison). Metric: the DP
// performance ratio (paper: MC-DLA(L) ≈ 96% of MC-DLA(B)).
func BenchmarkAblationPlacement(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		var ratios []float64
		for _, net := range dnn.BenchmarkNames() {
			s := train.MustBuild(net, 512, 8, train.DataParallel)
			local := core.MustSimulate(core.NewMCDLAL(accel.Default(), 8), s)
			bw := core.MustSimulate(core.NewMCDLAB(accel.Default(), 8), s)
			ratios = append(ratios, bw.IterationTime.Seconds()/local.IterationTime.Seconds())
		}
		ratio = 100 * metrics.HarmonicMean(ratios)
	}
	b.ReportMetric(ratio, "local-vs-bwaware-%")
}

// BenchmarkAblationRecompute quantifies the MXNet-style recompute exception
// (§IV footnote 4): how much backing-store traffic it saves on the CNNs.
func BenchmarkAblationRecompute(b *testing.B) {
	var savings float64
	for i := 0; i < b.N; i++ {
		var with, without float64
		for _, net := range dnn.CNNNames() {
			g := dnn.MustBuild(net, 512)
			with += float64(vmem.Analyze(g, vmem.Options{}).TrafficBytes())
			without += float64(vmem.Analyze(g, vmem.Options{DisableRecompute: true}).TrafficBytes())
		}
		savings = 100 * (1 - with/without)
	}
	b.ReportMetric(savings, "traffic-saved-%")
}

// BenchmarkAblationSharedLinks quantifies the cost of carrying collectives
// and virtualization DMAs over the same MC-DLA link complex, versus an
// idealized variant with a dedicated (contention-free) virtualization fabric.
func BenchmarkAblationSharedLinks(b *testing.B) {
	var penalty float64
	for i := 0; i < b.N; i++ {
		var ratios []float64
		for _, net := range dnn.BenchmarkNames() {
			s := train.MustBuild(net, 512, 8, train.ModelParallel)
			shared := core.MustSimulate(core.NewMCDLAB(accel.Default(), 8), s)
			ideal := core.NewMCDLAB(accel.Default(), 8)
			ideal.SharedLinks = false
			dedicated := core.MustSimulate(ideal, s)
			ratios = append(ratios, shared.IterationTime.Seconds()/dedicated.IterationTime.Seconds())
		}
		penalty = 100 * (metrics.HarmonicMean(ratios) - 1)
	}
	b.ReportMetric(penalty, "contention-penalty-%")
}

// ---- Extensions beyond the paper's evaluation -------------------------------

// BenchmarkPacketSimValidation runs the chunk-level ring simulation against
// the analytical collective model across the Figure 9 grid. Metric: the
// worst-case model error at the 8 MB synchronization size.
func BenchmarkPacketSimValidation(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		worst = 0
		for _, n := range []int{2, 8, 16, 36} {
			cfg := collective.Config{
				Nodes: n, Rings: 1, LinkBW: units.GBps(25),
				ChunkBytes: collective.DefaultChunk, StepAlpha: collective.DefaultAlpha,
			}
			for _, op := range []collective.Op{collective.AllReduce, collective.AllGather, collective.Broadcast} {
				if e := collective.ValidateModel(op, 8*units.MB, cfg); e > worst {
					worst = e
				}
			}
		}
	}
	b.ReportMetric(100*worst, "worst-model-error-%")
}

// BenchmarkTracedSimulation measures the tracing overhead and reports the
// MC-DLA(B) compute coverage of the iteration (overlap quality).
func BenchmarkTracedSimulation(b *testing.B) {
	s := train.MustBuild("VGG-E", 512, 8, train.DataParallel)
	d, err := core.DesignByName("MC-DLA(B)")
	if err != nil {
		b.Fatal(err)
	}
	var share float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := &trace.Log{}
		if _, err := core.SimulateTraced(d, s, tr); err != nil {
			b.Fatal(err)
		}
		share = 100 * tr.CriticalPathShare()
	}
	b.ReportMetric(share, "compute-coverage-%")
}

// benchPlane returns the Figure 15 plane of n system nodes reading its
// schedules from a fresh engine. The plane benchmarks evaluate each point
// once before the timer, so they time the iteration, not the build.
func benchPlane(n int) scaleout.Plane {
	p := scaleout.Default(n)
	p.Schedules = runner.New(runner.Options{}).Schedule
	return p
}

// BenchmarkScaleOutPlane runs the §VI Figure 15 plane study on the
// event-driven engine. Metric: the MC-plane strong-scaling speedup at 16
// system nodes (128 devices).
func BenchmarkScaleOutPlane(b *testing.B) {
	const batch = 8 * 16 * 64
	planes := []scaleout.Plane{benchPlane(1), benchPlane(16)}
	for _, p := range planes {
		if _, err := p.EvalPoint("VGG-E", batch, false); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	var sp float64
	for i := 0; i < b.N; i++ {
		pts := make([]scaleout.ScalingPoint, 2)
		for j, p := range planes {
			pt, err := p.EvalPoint("VGG-E", batch, false)
			if err != nil {
				b.Fatal(err)
			}
			pts[j] = pt
		}
		scaleout.FillSpeedups(pts)
		sp = pts[1].SpeedupMC
	}
	b.ReportMetric(sp, "128dev-scaling-x")
}

// BenchmarkPlaneSimulate times one event-driven MC-plane iteration on the
// 16-node Figure 15 configuration. Metric: the engine's divergence from the
// retired first-order estimator (the honest contention cost the additive
// formula cannot see).
func BenchmarkPlaneSimulate(b *testing.B) {
	p := benchPlane(16)
	const batch = 8 * 16 * 64
	est, err := p.Estimate("VGG-E", batch, true)
	if err != nil {
		b.Fatal(err)
	}
	var div float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := p.Simulate("VGG-E", batch, true, scaleout.DataParallel)
		if err != nil {
			b.Fatal(err)
		}
		div = 100 * (sim.Iteration.Seconds() - est.Iteration.Seconds()) / est.Iteration.Seconds()
	}
	b.StopTimer()
	tr := &trace.Log{}
	if _, err := p.SimulateTraced("VGG-E", batch, true, scaleout.DataParallel, tr); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(div, "divergence-%")
	b.ReportMetric(float64(tr.Fills), "fills/op")
	b.ReportMetric(float64(tr.Visits), "visits/op")
}

// BenchmarkPlaneHybrid times the hybrid (MP-in-chassis × DP-across-chassis)
// scenario axis on the event engine. Metric: iteration milliseconds.
func BenchmarkPlaneHybrid(b *testing.B) {
	const batch = 8 * 16 * 64
	p := benchPlane(16)
	if _, err := p.Simulate("VGG-E", batch, true, scaleout.Hybrid); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var iter float64
	for i := 0; i < b.N; i++ {
		r, err := p.Simulate("VGG-E", batch, true, scaleout.Hybrid)
		if err != nil {
			b.Fatal(err)
		}
		iter = r.Iteration.Seconds() * 1e3
	}
	b.ReportMetric(iter, "iter-ms")
}

// ---- Design-space optimizer benchmarks -------------------------------------

// BenchmarkOptimizeGrid regenerates the optimizer's default study end to end
// on a fresh engine each iteration (no memo carry-over), the cost of a cold
// `mcdla optimize`. Metric: the frontier's best perf-per-dollar.
func BenchmarkOptimizeGrid(b *testing.B) {
	var best float64
	for i := 0; i < b.N; i++ {
		eng := runner.New(runner.Options{})
		res, err := dse.Search(context.Background(), eng, experiments.DefaultOptimizeSpace(),
			dse.Options{Search: dse.Grid, Objective: dse.PerfPerDollar})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Frontier) == 0 {
			b.Fatal("empty frontier")
		}
		best = res.Frontier[0].Metrics.PerfPerDollar()
	}
	b.ReportMetric(best, "best-perf-per-k$")
}

// BenchmarkOptimizeGreedy is the same study under Pareto local search;
// its metric is the fraction of the grid it simulated.
func BenchmarkOptimizeGreedy(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		eng := runner.New(runner.Options{})
		res, err := dse.Search(context.Background(), eng, experiments.DefaultOptimizeSpace(),
			dse.Options{Search: dse.Greedy, Objective: dse.PerfPerDollar})
		if err != nil {
			b.Fatal(err)
		}
		frac = float64(res.Simulated) / float64(res.GridSize)
	}
	b.ReportMetric(100*frac, "simulated-%")
}

// BenchmarkOptimizeSurrogate runs the default study under the calibrated-
// predictor successive-halving search. Its simulated-% metric undercuts
// BenchmarkOptimizeGreedy's: the surrogate confirms the frontier with fewer
// full simulations than plain neighborhood expansion.
func BenchmarkOptimizeSurrogate(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		eng := runner.New(runner.Options{})
		res, err := dse.Search(context.Background(), eng, experiments.DefaultOptimizeSpace(),
			dse.Options{Search: dse.Surrogate, Objective: dse.PerfPerDollar})
		if err != nil {
			b.Fatal(err)
		}
		frac = float64(res.Simulated) / float64(res.GridSize)
	}
	b.ReportMetric(100*frac, "simulated-%")
}

// BenchmarkParetoExtract measures the frontier extraction alone over a
// seeded 4-objective cloud the size of a large study.
func BenchmarkParetoExtract(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	vecs := make([][]float64, 2048)
	for i := range vecs {
		vecs[i] = []float64{r.Float64(), r.Float64(), r.Float64(), r.Float64()}
	}
	b.ResetTimer()
	var size int
	for i := 0; i < b.N; i++ {
		frontier, _ := dse.Frontier(vecs)
		size = len(frontier)
	}
	b.ReportMetric(float64(size), "frontier-points")
}

// BenchmarkFleetSimulate schedules a 100-job synthetic trace onto a mixed
// device-/memory-centric cluster through the event-driven fleet scheduler
// (ROADMAP §5). The simulator is an O(1) analytic stub, so the benchmark
// times the scheduler itself — footprint accounting, first-fit admission
// with backfill, and the virtual clock — rather than the per-job core
// simulations the real surfaces memoize. Metric: completed jobs per
// simulated day on the cluster.
func BenchmarkFleetSimulate(b *testing.B) {
	traceJobs := fleet.SyntheticTrace(100)
	cluster := fleet.Cluster{Name: "mix", Pods: []fleet.PodSpec{
		{Kind: "DC-DLA", Count: 2},
		{Kind: "MC-DLA(B)", Count: 2},
	}}
	m := cost.Default()
	sim := func(_ context.Context, jobs []runner.Job) ([]core.Result, error) {
		out := make([]core.Result, len(jobs))
		for i, j := range jobs {
			h := fnv.New64a()
			fmt.Fprintf(h, "%s|%s|%d|%d|%d|%d|%d", j.Design.Name, j.Workload, j.Strategy, j.Batch, j.Workers, j.SeqLen, j.Precision)
			out[i] = core.Result{IterationTime: units.Seconds(0.001 + float64(h.Sum64()%997)/100)}
		}
		return out, nil
	}
	var jobsPerDay float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := fleet.Run(context.Background(), cluster, traceJobs, m, sim)
		if err != nil {
			b.Fatal(err)
		}
		jobsPerDay = res.JobsPerDay
	}
	b.ReportMetric(jobsPerDay, "jobs/day")
}

// BenchmarkFleetCold serves the default fleet request cold: each iteration
// runs experiments.Fleet on the default trace and iso-cost clusters on a
// fresh one-worker engine, so it times the build path a cold request pays —
// graphs, memory plans, schedules and footprints — with the 30 simulations
// behind them. graphs/op and plans/op are exact: one graph per distinct
// (workload, device batch, seqlen) and one plan per distinct (graph, oracle
// mode), however many clusters and schedules share them.
func BenchmarkFleetCold(b *testing.B) {
	clusters, err := experiments.FleetClusters(experiments.FleetPods, nil)
	if err != nil {
		b.Fatal(err)
	}
	tr := fleet.DefaultTrace()
	b.Cleanup(func() { experiments.SetOptions(runner.Options{}) })
	var graphs, plans int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		experiments.SetOptions(runner.Options{Parallelism: 1})
		graphs0, plans0 := train.Builds()
		b.StartTimer()
		if _, err := experiments.Fleet(context.Background(), tr, clusters); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		graphs1, plans1 := train.Builds()
		graphs += graphs1 - graphs0
		plans += plans1 - plans0
		b.StartTimer()
	}
	b.ReportMetric(float64(graphs)/float64(b.N), "graphs/op")
	b.ReportMetric(float64(plans)/float64(b.N), "plans/op")
}

// BenchmarkRunStoreHit serves `/v1/run` requests from the durable store:
// set-up simulates twelve points into a store behind an engine whose memo
// holds four, and each op cycles once through the points with
// experiments.RunReportFor, so every request misses the memo and is
// answered by store.Load. graphs/op is exact: a store hit builds no graph
// for the resident-weights line.
func BenchmarkRunStoreHit(b *testing.B) {
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { experiments.SetOptions(runner.Options{}) })
	experiments.SetOptions(runner.Options{Parallelism: 1, CacheEntries: 4, Store: st})
	d, err := core.DesignByName("MC-DLA(B)")
	if err != nil {
		b.Fatal(err)
	}
	type point struct {
		workload string
		strategy train.Strategy
		batch    int
		prec     train.Precision
	}
	var points []point
	for _, w := range []string{"AlexNet", "VGG-E", "RNN-GRU"} {
		for _, strategy := range []train.Strategy{train.DataParallel, train.ModelParallel} {
			for _, prec := range []train.Precision{train.FP16, train.Mixed} {
				points = append(points, point{w, strategy, 256, prec})
			}
		}
	}
	serve := func() {
		for _, p := range points {
			if _, err := experiments.RunReportFor(context.Background(), d, p.workload, p.strategy, p.batch, 0, p.prec, experiments.Workers); err != nil {
				b.Fatal(err)
			}
		}
	}
	serve()
	hits0 := experiments.EngineStats().StoreHits
	var graphs int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graphs0, _ := train.Builds()
		serve()
		graphs1, _ := train.Builds()
		graphs += graphs1 - graphs0
	}
	b.StopTimer()
	if hits := experiments.EngineStats().StoreHits - hits0; hits != int64(b.N*len(points)) {
		b.Fatalf("%d store hits for %d requests", hits, b.N*len(points))
	}
	b.ReportMetric(float64(graphs)/float64(b.N), "graphs/op")
}

// BenchmarkRunMemoHit serves `/v1/run` requests from the memo through the
// run command, as the CLI and the route do (Parse, then Build): set-up
// simulates eighteen points, six of them per host-interface design with a
// cDMA engine, and each op cycles once through them, so every request is a
// memo hit. graphs/op is exact: a memo hit builds no graph, a cDMA point's
// compression ratio included, while the ratio's network is resident; the
// memo here is unbounded, so it always is.
func BenchmarkRunMemoHit(b *testing.B) {
	b.Cleanup(func() { experiments.SetOptions(runner.Options{}) })
	experiments.SetOptions(runner.Options{Parallelism: 1})
	run := experiments.Lookup("run")
	var args []experiments.Args
	for _, w := range []string{"AlexNet", "VGG-E", "RNN-GRU"} {
		for _, d := range []struct{ design, compress string }{{"MC-DLA(B)", ""}, {"DC-DLA", "true"}, {"HC-DLA", "true"}} {
			for _, strategy := range []string{"dp", "mp"} {
				q := map[string]string{"workload": w, "design": d.design, "compress": d.compress, "strategy": strategy, "batch": "256"}
				a, err := run.Parse(func(name string) string { return q[name] }, "")
				if err != nil {
					b.Fatal(err)
				}
				args = append(args, a)
			}
		}
	}
	serve := func() {
		for _, a := range args {
			if _, err := run.Build(context.Background(), a); err != nil {
				b.Fatal(err)
			}
		}
	}
	serve()
	hits0 := experiments.EngineStats().Hits
	var graphs int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graphs0, _ := train.Builds()
		serve()
		graphs1, _ := train.Builds()
		graphs += graphs1 - graphs0
	}
	b.StopTimer()
	if hits := experiments.EngineStats().Hits - hits0; hits != int64(b.N*len(args)) {
		b.Fatalf("%d memo hits for %d requests", hits, b.N*len(args))
	}
	b.ReportMetric(float64(graphs)/float64(b.N), "graphs/op")
}

// obsBatch is how many calls one op of the obs hot-path benchmarks makes.
// The trajectory files run at -benchtime 1x, where a single call of a few
// nanoseconds would time first-touch noise; a batch per op gives each
// sample enough work to mean something.
const obsBatch = 4096

// BenchmarkObsCounterInc pins the telemetry plane's hot-path budget: a
// counter bump is one atomic add, 0 allocs/op — the cost a grid boundary
// pays per job. The event loops themselves carry no obs calls at all. One
// op is obsBatch bumps.
func BenchmarkObsCounterInc(b *testing.B) {
	c := obs.NewRegistry().Counter("bench_counter_total", "benchmark counter")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < obsBatch; j++ {
			c.Inc()
		}
	}
	if c.Value() != int64(b.N)*obsBatch {
		b.Fatalf("counter = %v, want %d", c.Value(), b.N*obsBatch)
	}
}

// BenchmarkObsHistogramObserve: an observation is a binary search over the
// fixed bucket bounds plus two atomic ops — 0 allocs/op. One op is obsBatch
// observations.
func BenchmarkObsHistogramObserve(b *testing.B) {
	h := obs.NewRegistry().HistogramVec("bench_seconds", "benchmark histogram", obs.DefaultLatencyBuckets).With()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < obsBatch; j++ {
			h.Observe(float64(j%100) / 1000)
		}
	}
	if h.Count() != int64(b.N)*obsBatch {
		b.Fatalf("histogram count = %d, want %d", h.Count(), b.N*obsBatch)
	}
}

// BenchmarkObsWritePrometheus prices a /metrics scrape over a registry with
// a realistic family count and labelled children.
func BenchmarkObsWritePrometheus(b *testing.B) {
	r := obs.NewRegistry()
	for i := 0; i < 8; i++ {
		r.Counter(fmt.Sprintf("bench_family_%d_total", i), "benchmark family").Add(int64(i))
	}
	rv := r.CounterVec("bench_requests_total", "benchmark requests", "route", "code")
	for i := 0; i < 16; i++ {
		rv.With(fmt.Sprintf("/v1/route%d", i), "200").Inc()
	}
	h := r.HistogramVec("bench_latency_seconds", "benchmark latency", obs.DefaultLatencyBuckets, "route")
	for i := 0; i < 4; i++ {
		h.With(fmt.Sprintf("/v1/route%d", i)).Observe(0.01)
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := r.WritePrometheus(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len()), "exposition-bytes")
}

// BenchmarkTimelineWriteChrome prices the simulator-face export: trace one
// VGG-E iteration and serialize the multi-process Chrome document.
func BenchmarkTimelineWriteChrome(b *testing.B) {
	d, err := core.DesignByName("MC-DLA(B)")
	if err != nil {
		b.Fatal(err)
	}
	s, err := train.BuildSeq("VGG-E", experiments.Batch, experiments.Workers, train.DataParallel, 0, train.FP16)
	if err != nil {
		b.Fatal(err)
	}
	tr := &trace.Log{Label: "bench"}
	if _, err := core.SimulateTraced(d, s, tr); err != nil {
		b.Fatal(err)
	}
	t := &trace.Timeline{Label: "bench"}
	t.AddProcess("bench", tr)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := t.WriteChrome(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len()), "trace-bytes")
}
