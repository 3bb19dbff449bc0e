package core

import (
	"testing"

	"github.com/memcentric/mcdla/internal/train"
)

// TestSimulateAllocBudget pins the steady-state heap cost of one untraced
// core iteration. The first call pays for the schedule's prepared vmem
// analysis; warm iterations re-run only the event loop, which must build no
// span names (there is no trace log), keep no per-flow map and take its
// channels and tables from the pools earlier iterations filled. A per-layer
// or per-flow regression multiplies the count by the number of layers or
// flows, and tables allocated per simulation cost 18–26, so the budget
// catches each. Under -race sync.Pool drops a random share of what it is
// given, so a simulation may grow fresh tables, and the budget is then the
// fresh-table one: the counts measured before the tables were pooled plus
// ~25%.
func TestSimulateAllocBudget(t *testing.T) {
	// Measured: 0, 0, 0 and 0 allocs/op once each simulation took its
	// channels and its kernel and sync tables from pools (21, 20, 26 and
	// 18 before; 24, 20, 29 and 18 once flows became handles on a
	// pointer-free flow table with a doubling stamp table; 24, 21, 37 and
	// 31 with a 64-flow arena; 32, 27, 40 and 32 once each channel
	// declared its groups once, without a cap map; 32, 29, 40 and 34
	// before; 50, 47, 599 and 593 before both engines ran one iteration
	// kernel and Schedule.Validate stopped copying each layer's sync ops;
	// 104, 68, 1169 and 608 before the water-fill stopped keeping per-unit
	// member lists; 305, 265, 3421 and 2856 before span names went lazy
	// and the per-flow tag map went). A quarter of counts this small is
	// less than one allocation, so the budget of 3 instead leaves room for
	// the runtime's own: MemStats counts the process, and a new OS thread
	// allocates its m and g on the heap.
	const budget = 3
	cases := []struct {
		design   string
		workload string
		strategy train.Strategy
		fresh    float64
	}{
		{"DC-DLA", "VGG-E", train.DataParallel, 30},
		{"MC-DLA(B)", "VGG-E", train.DataParallel, 25},
		{"DC-DLA", "RNN-GRU", train.ModelParallel, 37},
		{"MC-DLA(B)", "RNN-GRU", train.ModelParallel, 23},
	}
	for _, c := range cases {
		d, err := DesignByName(c.design)
		if err != nil {
			t.Fatal(err)
		}
		s := train.MustBuild(c.workload, paperBatch, paperWorkers, c.strategy)
		run := func() { MustSimulate(d, s) }
		// Warm the schedule's prepared vmem analysis and the pools on the
		// one processor AllocsPerRun measures on: each channel of a
		// two-channel design may take the other's role, so it runs both
		// before the count starts.
		testing.AllocsPerRun(2, run)
		allocs := testing.AllocsPerRun(5, run)
		t.Logf("%s %s %v: %.0f allocs/op", c.design, c.workload, c.strategy, allocs)
		limit := float64(budget)
		if raceEnabled {
			limit = c.fresh
		}
		if allocs > limit {
			t.Errorf("%s %s %v: iteration allocated %.0f objects/op, budget %.0f", c.design, c.workload, c.strategy, allocs, limit)
		}
	}
}
