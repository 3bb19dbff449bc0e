package experiments

import (
	"context"
	"testing"

	"github.com/memcentric/mcdla/internal/fleet"
	"github.com/memcentric/mcdla/internal/runner"
	"github.com/memcentric/mcdla/internal/train"
)

// TestColdRequestBuildsEachNetworkOnce pins the build counts of study
// requests on a fresh engine: one graph per distinct (workload, device
// batch, seqlen) and one memory plan per distinct (graph, oracle mode).
// Schedules that differ only in precision, or in strategy at the same
// device batch, share both, and so do the fleet's clusters: the default
// fleet request used to build 40 schedules, each with its own graph. The
// counts are derived again from the simulated jobs the progress stream
// reports, plus the graphs a study reads without simulating them.
func TestColdRequestBuildsEachNetworkOnce(t *testing.T) {
	ctx := context.Background()
	t.Cleanup(func() { SetProgress(nil); SetParallelism(0) })
	cases := []struct {
		name string
		run  func() error
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
		}, 0, 10, 10},
		{"fleet?jobs=20&pods=1&designs=DC-DLA,MC-DLA(B)", func() error {
			clusters, err := FleetClusters(1, []string{"DC-DLA", "MC-DLA(B)"})
			if err != nil {
				return err
			}
			_, err = Fleet(ctx, fleet.SyntheticTrace(20), clusters)
			return err
		}, 0, 8, 8},
		{"transformer?seqlens=128,256", func() error {
			if _, err := TransformerSweep(ctx, nil, []int{128, 256}, nil); err != nil {
				return err
			}
			_, err := AttentionCompress(ctx)
			return err
		}, 4, 14, 14},
		{"fig14", func() error { _, err := Fig14(ctx); return err }, 0, 48, 48},
		{"sens", func() error { _, err := Sensitivity(ctx); return err }, 0, 16, 16},
	}
	type netKey struct {
		workload      string
		batch, seqLen int
	}
	type planKey struct {
		net    netKey
		oracle bool
	}
	for _, c := range cases {
		SetParallelism(2)
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
