package experiments

import (
	"context"
	"testing"

	"github.com/memcentric/mcdla/internal/fleet"
	"github.com/memcentric/mcdla/internal/runner"
	"github.com/memcentric/mcdla/internal/scaleout"
	"github.com/memcentric/mcdla/internal/store"
	"github.com/memcentric/mcdla/internal/train"
)

type netKey struct {
	workload      string
	batch, seqLen int
}

// planeNets lists the networks a plane sweep over nodes reads: each plane
// size's data-parallel device batch and, with hybrid, the chassis batch
// the hybrid strategy's model-parallel schedule runs at. Plane schedules
// are built without the oracle, so each network has one memory plan.
func planeNets(workload string, nodes []int, hybrid bool) []netKey {
	batch := ScaleOutBatch(nodes)
	var keys []netKey
	for _, n := range nodes {
		keys = append(keys, netKey{workload, batch / scaleout.Default(n).TotalDevices(), 0})
		if hybrid && n > 1 && batch%n == 0 {
			keys = append(keys, netKey{workload, batch / n, 0})
		}
	}
	return keys
}

// TestColdRequestBuildsEachNetworkOnce pins the build counts of study
// requests on a fresh engine: one graph per distinct (workload, device
// batch, seqlen) and one memory plan per distinct (graph, oracle mode).
// Schedules that differ only in precision, or in strategy at the same
// device batch, share both, and so do the fleet's clusters: the default
// fleet request used to build 40 schedules, each with its own graph. The
// plane study and its timeline read their schedules from the same engine,
// so they too build each network once per request, and a second request
// on a fresh engine builds them again. The counts are derived again from
// the simulated jobs the progress stream reports, plus the networks the
// plane reads and the graphs a study reads without simulating them.
func TestColdRequestBuildsEachNetworkOnce(t *testing.T) {
	ctx := context.Background()
	t.Cleanup(func() { SetProgress(nil); SetOptions(runner.Options{}) })
	planeStudy := func(workload string, nodes []int, compare bool) func() error {
		return func() error {
			pts, err := ScaleOutRows(ctx, workload, nodes, false)
			if err == nil && compare {
				_, err = ScaleOutCompare(ctx, workload, nodes, pts)
			}
			return err
		}
	}
	figure15 := []int{1, 2, 4, 8, 16}
	cases := []struct {
		name string
		run  func() error
		// planes lists the networks the plane engine reads, which no
		// progress update reports.
		planes []netKey
		// unsimulated counts the graphs read without a simulation: the
		// CNN graphs at the full batch whose cDMA ratios AttentionCompress
		// reads.
		unsimulated   int
		graphs, plans int64
	}{
		{"fleet", func() error {
			clusters, err := FleetClusters(FleetPods, nil)
			if err != nil {
				return err
			}
			_, err = Fleet(ctx, fleet.DefaultTrace(), clusters)
			return err
		}, nil, 0, 10, 10},
		{"fleet?jobs=20&pods=1&designs=DC-DLA,MC-DLA(B)", func() error {
			clusters, err := FleetClusters(1, []string{"DC-DLA", "MC-DLA(B)"})
			if err != nil {
				return err
			}
			_, err = Fleet(ctx, fleet.SyntheticTrace(20), clusters)
			return err
		}, nil, 0, 8, 8},
		{"transformer?seqlens=128,256", func() error {
			if _, err := TransformerSweep(ctx, nil, []int{128, 256}, nil); err != nil {
				return err
			}
			_, err := AttentionCompress(ctx)
			return err
		}, nil, 4, 14, 14},
		{"fig14", func() error { _, err := Fig14(ctx); return err }, nil, 0, 48, 48},
		{"sens", func() error { _, err := Sensitivity(ctx); return err }, nil, 0, 16, 16},
		{"plane?nodes=1,2&compare=true", planeStudy("VGG-E", []int{1, 2}, true),
			planeNets("VGG-E", []int{1, 2}, true), 0, 3, 3},
		{"plane?workload=BERT-Large&nodes=1,2", planeStudy("BERT-Large", []int{1, 2}, false),
			planeNets("BERT-Large", []int{1, 2}, false), 0, 2, 2},
		{"plane?workload=GPT-2&nodes=1,2", planeStudy("GPT-2", []int{1, 2}, false),
			planeNets("GPT-2", []int{1, 2}, false), 0, 2, 2},
		{"plane timeline", func() error { _, err := planeTimeline(ctx, "VGG-E", figure15); return err },
			planeNets("VGG-E", figure15, false), 0, 5, 5},
	}
	type planKey struct {
		net    netKey
		oracle bool
	}
	for _, c := range cases {
		SetOptions(runner.Options{Parallelism: 2})
		nets, plans := map[netKey]bool{}, map[planKey]bool{}
		SetProgress(func(u runner.Update) {
			j := u.Job
			batch, err := train.DeviceBatch(j.Batch, j.Workers, j.Strategy)
			if err != nil {
				t.Errorf("%s: %v", c.name, err)
			}
			k := netKey{j.Workload, batch, j.SeqLen}
			nets[k] = true
			plans[planKey{k, j.Design.Oracle}] = true
		})
		for _, k := range c.planes {
			nets[k] = true
			plans[planKey{k, false}] = true
		}
		graphs0, plans0 := train.Builds()
		if err := c.run(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		graphs1, plans1 := train.Builds()
		graphs, planned := graphs1-graphs0, plans1-plans0
		if graphs != c.graphs || planned != c.plans {
			t.Errorf("%s: built %d graphs and %d plans, want %d and %d", c.name, graphs, planned, c.graphs, c.plans)
		}
		if want := int64(len(nets) + c.unsimulated); graphs != want {
			t.Errorf("%s: built %d graphs for %d distinct networks", c.name, graphs, want)
		}
		if want := int64(len(plans)); planned != want {
			t.Errorf("%s: built %d plans for %d distinct (network, oracle) pairs", c.name, planned, want)
		}
	}
}

// TestStoreHitBuildsNoGraph pins the /v1/run store-hit path: on an engine
// whose memo bound is smaller than the cycled set of points, every request
// after the first pass misses the memo and is answered by the store, and
// once each (workload, seqlen) has been seen, RunReportFor builds no graph
// for the resident-weights line.
func TestStoreHitBuildsNoGraph(t *testing.T) {
	ctx := context.Background()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { SetOptions(runner.Options{}) })
	// Both (workload, seqlen) keys fit the bound of three; the eight points
	// do not.
	SetOptions(runner.Options{Parallelism: 1, CacheEntries: 3, Store: st})
	type point struct {
		workload string
		strategy train.Strategy
		batch    int
		seqlen   int
	}
	var points []point
	for _, p := range []struct {
		workload string
		seqlen   int
	}{{"AlexNet", 0}, {"BERT-Large", 128}} {
		for _, strategy := range []train.Strategy{train.DataParallel, train.ModelParallel} {
			for _, batch := range []int{64, 128} {
				points = append(points, point{p.workload, strategy, batch, p.seqlen})
			}
		}
	}
	d := mustDesign("MC-DLA(B)")
	serve := func() {
		for _, p := range points {
			if _, err := RunReportFor(ctx, d, p.workload, p.strategy, p.batch, p.seqlen, train.FP16, Workers); err != nil {
				t.Fatal(err)
			}
		}
	}
	serve() // cold: every point simulated and written to the store
	if s := EngineStats(); s.Simulated != int64(len(points)) {
		t.Fatalf("cold pass simulated %d of %d points", s.Simulated, len(points))
	}
	for pass := 0; pass < 2; pass++ {
		before := EngineStats()
		graphs0, _ := train.Builds()
		serve()
		graphs1, _ := train.Builds()
		after := EngineStats()
		if hits := after.StoreHits - before.StoreHits; hits != int64(len(points)) {
			t.Fatalf("pass %d: %d store hits for %d requests", pass, hits, len(points))
		}
		if graphs := graphs1 - graphs0; graphs != 0 {
			t.Fatalf("pass %d: %d store hits built %d graphs", pass, len(points), graphs)
		}
	}
}
