package core_test

import (
	"context"
	"math"
	"sync"
	"testing"

	"github.com/memcentric/mcdla/internal/accel"
	"github.com/memcentric/mcdla/internal/core"
	"github.com/memcentric/mcdla/internal/dnn"
	"github.com/memcentric/mcdla/internal/dse"
	"github.com/memcentric/mcdla/internal/experiments"
	"github.com/memcentric/mcdla/internal/runner"
	"github.com/memcentric/mcdla/internal/train"
	"github.com/memcentric/mcdla/internal/units"
)

// TestForwardPricesMatchLayerFwdTime: every entry of the price table the
// kernel reads is LayerFwdTime's float by its bits, on every Table III
// workload × strategy × precision plus BERT, GPT-2 and DenseNet, on every
// Figure 2 device generation.
func TestForwardPricesMatchLayerFwdTime(t *testing.T) {
	nets := append(dnn.BenchmarkNames(), append(dnn.TransformerNames(), "DenseNet-121")...)
	checked := 0
	for _, net := range nets {
		for _, st := range []train.Strategy{train.DataParallel, train.ModelParallel} {
			for _, prec := range train.Precisions() {
				s, err := train.BuildSeq(net, 512, 8, st, 0, prec)
				if err != nil {
					t.Fatalf("%s %v %v: %v", net, st, prec, err)
				}
				for _, gen := range accel.Generations() {
					fwd := core.ForwardPrices(gen.Config, s)
					if len(fwd) != len(s.Graph.Layers) {
						t.Fatalf("%s %v %v on %s: %d entries for %d layers", net, st, prec, gen.Name, len(fwd), len(s.Graph.Layers))
					}
					for _, l := range s.Graph.Layers {
						want := core.LayerFwdTime(gen.Config, s.Graph, l, s.Work(l.ID))
						if math.Float64bits(float64(fwd[l.ID])) != math.Float64bits(float64(want)) {
							t.Fatalf("%s %v %v on %s, layer %s: price %v, LayerFwdTime %v", net, st, prec, gen.Name, l.Name, fwd[l.ID], want)
						}
					}
					checked++
				}
			}
		}
	}
	if want := len(nets) * 2 * len(train.Precisions()) * len(accel.Generations()); checked != want {
		t.Fatalf("checked %d tables, want %d", checked, want)
	}
}

// TestForwardPricesShareByPriceKey: configs that differ only in fields the
// price does not read (Name, Links, LinkBW) share one table and price no
// layer again, while a different MemBW gets a table of its own.
func TestForwardPricesShareByPriceKey(t *testing.T) {
	s := train.MustBuild("ResNet", 512, 8, train.DataParallel)
	dev := accel.Default()
	base := core.ForwardPrices(dev, s)
	before := core.LayerPrices()
	for name, mod := range map[string]func(*accel.Config){
		"Name":   func(c *accel.Config) { c.Name = "renamed" },
		"Links":  func(c *accel.Config) { c.Links = 12 },
		"LinkBW": func(c *accel.Config) { c.LinkBW = units.GBps(100) },
	} {
		c := dev
		mod(&c)
		if got := core.ForwardPrices(c, s); &got[0] != &base[0] {
			t.Errorf("a config differing only in %s got a table of its own", name)
		}
	}
	if n := core.LayerPrices() - before; n != 0 {
		t.Errorf("shared tables priced %d layers, want 0", n)
	}
	c := dev
	c.MemBW *= 2
	if got := core.ForwardPrices(c, s); &got[0] == &base[0] {
		t.Error("a config with a different MemBW shares the base table")
	}
	if n, want := core.LayerPrices()-before, int64(len(s.Graph.Layers)); n != want {
		t.Errorf("a new MemBW priced %d layers, want one per layer (%d)", n, want)
	}
}

// TestForwardPricesBuiltOnceAcrossParallelSimulations: concurrent
// simulations of one schedule on designs that share a device price each
// layer once between them (run under -race, this also checks the table's
// lock).
func TestForwardPricesBuiltOnceAcrossParallelSimulations(t *testing.T) {
	s := train.MustBuild("GoogLeNet", 512, 8, train.DataParallel)
	before := core.LayerPrices()
	var wg sync.WaitGroup
	for _, name := range []string{"DC-DLA", "HC-DLA", "MC-DLA(S)", "MC-DLA(L)", "MC-DLA(B)", "DC-DLA(O)"} {
		d, err := core.DesignByName(name)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := core.Simulate(d, s); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n, want := core.LayerPrices()-before, int64(len(s.Graph.Layers)); n != want {
		t.Fatalf("six parallel simulations priced %d layers, want %d (one table)", n, want)
	}
}

// recordingRunner keeps every job a search submits.
type recordingRunner struct {
	*runner.Engine
	jobs []runner.Job
}

func (r *recordingRunner) Run(ctx context.Context, jobs []runner.Job, progress func(runner.Update)) ([]core.Result, error) {
	r.jobs = append(r.jobs, jobs...)
	return r.Engine.Run(ctx, jobs, progress)
}

// TestOptimizeGridPricesEachLayerOnce: the optimizer's default grid runs
// exactly one LayerFwdTime per layer of each distinct (schedule, device
// price key) pair it simulates, however many link, memory-node and DIMM
// points share the pair.
func TestOptimizeGridPricesEachLayerOnce(t *testing.T) {
	eng := &recordingRunner{Engine: runner.New(runner.Options{})}
	before := core.LayerPrices()
	if _, err := dse.Search(context.Background(), eng, experiments.DefaultOptimizeSpace(),
		dse.Options{Search: dse.Grid, Objective: dse.PerfPerDollar}); err != nil {
		t.Fatal(err)
	}
	got := core.LayerPrices() - before
	type pair struct {
		s   *train.Schedule
		key accel.Config
	}
	seen := map[pair]bool{}
	var want int64
	for _, j := range eng.jobs {
		s, err := eng.Schedule(j)
		if err != nil {
			t.Fatal(err)
		}
		if p := (pair{s, j.Design.Device.PriceKey()}); !seen[p] {
			seen[p] = true
			want += int64(len(s.Graph.Layers))
		}
	}
	if len(eng.jobs) <= len(seen) {
		t.Fatalf("%d jobs over %d pairs: the grid shares no table", len(eng.jobs), len(seen))
	}
	t.Logf("%d jobs over %d (schedule, price key) pairs: %d LayerFwdTime evaluations", len(eng.jobs), len(seen), got)
	if got != want {
		t.Fatalf("the grid ran %d LayerFwdTime evaluations, want %d (%d pairs over %d jobs)", got, want, len(seen), len(eng.jobs))
	}
}
