package dse

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/memcentric/mcdla/internal/compress"
	"github.com/memcentric/mcdla/internal/cost"
	"github.com/memcentric/mcdla/internal/dnn"
	"github.com/memcentric/mcdla/internal/runner"
	"github.com/memcentric/mcdla/internal/train"
	"github.com/memcentric/mcdla/internal/units"
)

// testSpace is a small real study over a fast workload: both families, two
// precisions (the built-in dominated axis), two link speeds, cDMA on the
// host side.
func testSpace() Space {
	return Space{
		Workloads:  []string{"AlexNet"},
		Designs:    []string{"DC-DLA", "MC-DLA(B)"},
		Strategies: []train.Strategy{train.DataParallel},
		Batches:    []int{512},
		Precisions: []train.Precision{train.FP16, train.Mixed},
		LinkGBps:   []float64{25, 50},
		Compress:   []bool{false, true},
	}
}

func TestSpacePointsNormalize(t *testing.T) {
	pts, err := testSpace().Points()
	if err != nil {
		t.Fatal(err)
	}
	// DC: 2 precisions × 2 speeds × 2 compress = 8; MC: compress collapses,
	// 2 × 2 = 4.
	if len(pts) != 12 {
		t.Fatalf("got %d candidates, want 12 (compress must collapse for the shared-link family)\n%+v", len(pts), pts)
	}
	seen := map[Point]bool{}
	for _, p := range pts {
		if seen[p] {
			t.Fatalf("duplicate candidate %+v", p)
		}
		seen[p] = true
		if p.Design == "MC-DLA(B)" && p.Compress {
			t.Fatalf("cDMA must normalize away on the shared-link design: %+v", p)
		}
	}
}

func TestSpaceValidate(t *testing.T) {
	if err := (Space{}).Validate(); err == nil {
		t.Fatal("empty space must not validate")
	}
	s := testSpace()
	s.Designs = []string{"NV-DLA"}
	if _, err := s.Points(); err == nil || !strings.Contains(err.Error(), "NV-DLA") {
		t.Fatalf("unknown design must fail by name, got %v", err)
	}
}

func TestDesignPointDerivation(t *testing.T) {
	// Link axes re-derive the MC virtualization bandwidth (BW_AWARE: N×B).
	d, err := Point{Design: "MC-DLA(B)", Workload: "VGG-E", Batch: 512, Links: 8, LinkGBps: 50}.DesignPoint()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := d.VirtBW, units.GBps(8*50); got != want {
		t.Fatalf("VirtBW = %v, want %v (N×B)", got, want)
	}
	// A half-populated ring halves the striped bandwidth and the board count.
	dh, err := Point{Design: "MC-DLA(B)", Workload: "VGG-E", Batch: 512, MemNodes: 4}.DesignPoint()
	if err != nil {
		t.Fatal(err)
	}
	df, _ := Point{Design: "MC-DLA(B)", Workload: "VGG-E", Batch: 512}.DesignPoint()
	if math.Abs(float64(dh.VirtBW)-float64(df.VirtBW)/2) > 1e-6 || dh.MemNodes != 4 {
		t.Fatalf("4/8 boards: VirtBW = %v (full %v), MemNodes = %d", dh.VirtBW, df.VirtBW, dh.MemNodes)
	}
	// DIMM choice swaps the module.
	dd, err := Point{Design: "MC-DLA(B)", Workload: "VGG-E", Batch: 512, DIMM: "8GB-RDIMM"}.DesignPoint()
	if err != nil {
		t.Fatal(err)
	}
	if dd.MemNode.DIMM.Name != "8GB-RDIMM" {
		t.Fatalf("DIMM override not applied: %+v", dd.MemNode.DIMM)
	}
	// cDMA widens the DC path and marks the design for the cost model.
	dc, err := Point{Design: "DC-DLA", Workload: "AlexNet", Batch: 512, Compress: true}.DesignPoint()
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := Point{Design: "DC-DLA", Workload: "AlexNet", Batch: 512}.DesignPoint()
	if !dc.Compressed || dc.VirtBW <= plain.VirtBW {
		t.Fatalf("cDMA must widen VirtBW (%v vs %v) and set Compressed", dc.VirtBW, plain.VirtBW)
	}
	// Misapplied axes fail loudly.
	if _, err := (Point{Design: "MC-DLA(B)", Workload: "VGG-E", Batch: 512, Compress: true}).DesignPoint(); err == nil {
		t.Fatal("cDMA on the shared-link design must error")
	}
	if _, err := (Point{Design: "DC-DLA", Workload: "VGG-E", Batch: 512, DIMM: "8GB-RDIMM"}).DesignPoint(); err == nil {
		t.Fatal("-dimm on a host design must error")
	}
	if _, err := (Point{Design: "DC-DLA", Workload: "VGG-E", Batch: 512, MemNodes: 4}).DesignPoint(); err == nil {
		t.Fatal("-memnodes on a host design must error")
	}
	if _, err := (Point{Design: "MC-DLA(B)", Workload: "VGG-E", Batch: 512, MemNodes: 16}).DesignPoint(); err == nil {
		t.Fatal("over-populating the ring must error")
	}
}

func TestRecipe(t *testing.T) {
	p := Point{
		Design: "MC-DLA(B)", Workload: "VGG-E", Strategy: train.DataParallel,
		Batch: 512, Precision: train.Mixed, LinkGBps: 50, MemNodes: 4, DIMM: "32GB-LRDIMM",
	}
	got := p.Recipe()
	want := "mcdla run -design 'MC-DLA(B)' -workload VGG-E -batch 512 -precision mixed -gbps 50 -memnodes 4 -dimm 32GB-LRDIMM"
	if got != want {
		t.Fatalf("recipe = %q\nwant %q", got, want)
	}
	minimal := Point{Design: "DC-DLA", Workload: "AlexNet", Batch: 256}
	if got := minimal.Recipe(); got != "mcdla run -design 'DC-DLA' -workload AlexNet -batch 256" {
		t.Fatalf("minimal recipe = %q", got)
	}
}

// TestSearchGridVsGreedy runs both drivers over the same study on fresh
// engines: the greedy frontier must equal the grid frontier while
// simulating strictly fewer candidates, and both must be byte-stable
// across engine parallelism.
func TestSearchGridVsGreedy(t *testing.T) {
	search := func(kind SearchKind, parallelism int) Result {
		t.Helper()
		eng := runner.New(runner.Options{Parallelism: parallelism})
		res, err := Search(context.Background(), eng, testSpace(), Options{Search: kind})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	grid := search(Grid, 4)
	greedy := search(Greedy, 4)
	if len(grid.Frontier) == 0 {
		t.Fatal("grid frontier is empty")
	}
	if !reflect.DeepEqual(frontierPoints(grid), frontierPoints(greedy)) {
		t.Fatalf("greedy frontier diverged from grid:\ngrid:   %+v\ngreedy: %+v",
			frontierPoints(grid), frontierPoints(greedy))
	}
	if greedy.Simulated >= grid.Simulated {
		t.Fatalf("greedy simulated %d of %d candidates; want strictly fewer than grid's %d",
			greedy.Simulated, greedy.GridSize, grid.Simulated)
	}
	// The dominated precision plane is exactly what greedy skips here.
	if greedy.Simulated+greedy.Pruned >= grid.GridSize {
		t.Fatalf("greedy touched the whole grid (%d simulated + %d pruned of %d)",
			greedy.Simulated, greedy.Pruned, greedy.GridSize)
	}
	for _, par := range []int{1, 8} {
		if !reflect.DeepEqual(grid.Frontier, search(Grid, par).Frontier) {
			t.Fatalf("grid frontier changed at parallelism %d", par)
		}
		if !reflect.DeepEqual(greedy.Frontier, search(Greedy, par).Frontier) {
			t.Fatalf("greedy frontier changed at parallelism %d", par)
		}
	}
}

func frontierPoints(r Result) []Point {
	pts := make([]Point, len(r.Frontier))
	for i, e := range r.Frontier {
		pts[i] = e.Point
	}
	return pts
}

// TestSearchConstraints exercises the analytic prune and the throughput
// floor.
func TestSearchConstraints(t *testing.T) {
	eng := runner.New(runner.Options{Parallelism: 4})
	free, err := Search(context.Background(), eng, testSpace(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	maxCost := 0.0
	for _, e := range free.Evaluated {
		if e.Metrics.CostUSD > maxCost {
			maxCost = e.Metrics.CostUSD
		}
	}
	capped, err := Search(context.Background(), eng, testSpace(), Options{
		Constraints: Constraints{MaxCostUSD: maxCost - 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if capped.Pruned == 0 {
		t.Fatal("a binding cost ceiling must prune candidates without simulating them")
	}
	if capped.Simulated+capped.Pruned != capped.GridSize {
		t.Fatalf("grid accounting broken: %d simulated + %d pruned != %d candidates",
			capped.Simulated, capped.Pruned, capped.GridSize)
	}
	for _, e := range capped.Frontier {
		if e.Metrics.CostUSD > maxCost-1 {
			t.Fatalf("frontier member violates the cost ceiling: %+v", e.Metrics)
		}
	}
	impossible, err := Search(context.Background(), eng, testSpace(), Options{
		Constraints: Constraints{MinThroughput: 1e12},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(impossible.Frontier) != 0 || impossible.Infeasible == 0 {
		t.Fatalf("an unreachable throughput floor must empty the frontier: %+v", impossible)
	}
}

// TestSearchCancelled: a dead context aborts the search with its error.
func TestSearchCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := runner.New(runner.Options{Parallelism: 2})
	if _, err := Search(ctx, eng, testSpace(), Options{}); err != context.Canceled {
		t.Fatalf("cancelled search returned %v, want context.Canceled", err)
	}
}

// TestObjectiveParsing round-trips every spelling the CLI and HTTP layers
// accept.
func TestObjectiveParsing(t *testing.T) {
	for _, o := range []Objective{PerfPerDollar, PerfPerWatt, Throughput, Cost, Energy} {
		got, err := ParseObjective(o.String())
		if err != nil || got != o {
			t.Fatalf("ParseObjective(%q) = %v, %v", o.String(), got, err)
		}
	}
	if _, err := ParseObjective("latency"); err == nil {
		t.Fatal("unknown objective must fail")
	}
	for _, k := range []SearchKind{Grid, Greedy} {
		got, err := ParseSearch(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseSearch(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseSearch("annealing"); err == nil {
		t.Fatal("unknown search must fail")
	}
}

// TestObjectiveScores: each objective orders two metric points the right
// way round.
func TestObjectiveScores(t *testing.T) {
	cheapSlow := Metrics{Throughput: 100, CostUSD: 1000, PowerW: 100, EnergyJ: 10, CapacityTB: 1}
	fastDear := Metrics{Throughput: 1000, CostUSD: 100000, PowerW: 5000, EnergyJ: 50, CapacityTB: 1}
	if !(Cost.Score(cheapSlow) > Cost.Score(fastDear)) {
		t.Fatal("cost objective must prefer the cheap point")
	}
	if !(Throughput.Score(fastDear) > Throughput.Score(cheapSlow)) {
		t.Fatal("throughput objective must prefer the fast point")
	}
	if !(Energy.Score(cheapSlow) > Energy.Score(fastDear)) {
		t.Fatal("energy objective must prefer the frugal point")
	}
	if !(PerfPerDollar.Score(cheapSlow) > PerfPerDollar.Score(fastDear)) {
		t.Fatal("perf-per-dollar must prefer 100/1k$ over 1000/100k$")
	}
	if !(PerfPerWatt.Score(cheapSlow) > PerfPerWatt.Score(fastDear)) {
		t.Fatal("perf-per-watt must prefer 1/W over 0.2/W")
	}
}

// TestConstraintsString renders the report note forms.
func TestConstraintsString(t *testing.T) {
	if got := (Constraints{}).String(); got != "none" {
		t.Fatalf("empty constraints = %q", got)
	}
	c := Constraints{MaxCostUSD: 100000, MaxPowerW: 4000, MinThroughput: 500}
	got := c.String()
	for _, want := range []string{"cost <= $100000", "power <= 4000 W", "throughput >= 500 samples/s"} {
		if !strings.Contains(got, want) {
			t.Fatalf("constraints %q missing %q", got, want)
		}
	}
}

// TestMetricsVector orients every objective so larger is better.
func TestMetricsVector(t *testing.T) {
	m := Metrics{Throughput: 10, CostUSD: 5, EnergyJ: 3, CapacityTB: 2}
	if got := m.Vector(); !reflect.DeepEqual(got, []float64{10, -5, -3, 2}) {
		t.Fatalf("Vector() = %v", got)
	}
	if m.PerfPerDollar() != cost.PerfPerDollar(10, 5) {
		t.Fatal("PerfPerDollar must delegate to the cost package")
	}
}

// TestDesignOnMatchesDesignPoint: a design derived on an engine's
// networks is bit-identical to one derived with no source, and its cDMA
// factor is the compression ratio of a graph built alone at the batch
// split across the devices (clamped to 1). A second derivation on the
// same engine builds no graph, and a bad point fails with the same error
// either way.
func TestDesignOnMatchesDesignPoint(t *testing.T) {
	eng := runner.New(runner.Options{Parallelism: 1})
	for _, w := range append(dnn.BenchmarkNames(), dnn.TransformerNames()...) {
		for _, seqlen := range []int{0, 128} {
			for _, batch := range []int{4, 64, 512} {
				for _, design := range []string{"DC-DLA", "HC-DLA"} {
					p := Point{Design: design, Workload: w, Batch: batch, SeqLen: seqlen, Compress: true}
					want, wantErr := p.DesignPoint()
					got, err := p.DesignOn(eng.Network)
					if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
						t.Fatalf("%+v: DesignOn = (%+v, %v), DesignPoint = (%+v, %v)", p, got, err, want, wantErr)
					}
					if err != nil {
						continue
					}
					g, err := dnn.BuildSeq(w, max(batch/DefaultWorkers, 1), seqlen)
					if err != nil {
						t.Fatal(err)
					}
					plain, err := Point{Design: design, Workload: w, Batch: batch, SeqLen: seqlen}.DesignPoint()
					if err != nil {
						t.Fatal(err)
					}
					if ratio := compress.GraphRatio(g); got.VirtBW != units.Bandwidth(float64(plain.VirtBW)*ratio) {
						t.Fatalf("%+v: VirtBW %v, want %v × %v", p, got.VirtBW, plain.VirtBW, ratio)
					}
					graphs0, _ := train.Builds()
					if _, err := p.DesignOn(eng.Network); err != nil {
						t.Fatal(err)
					}
					if graphs1, _ := train.Builds(); graphs1 != graphs0 {
						t.Fatalf("%+v: a second derivation on the engine built %d graphs", p, graphs1-graphs0)
					}
				}
			}
		}
	}
}
