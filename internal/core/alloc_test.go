package core

import (
	"testing"

	"github.com/memcentric/mcdla/internal/train"
)

// TestSimulateAllocBudget pins the steady-state heap cost of one untraced
// core iteration. The first call pays for the schedule's prepared vmem
// analysis; warm iterations re-run only the event loop, which must build no
// span names (there is no trace log) and keep no per-flow map. Either
// regression multiplies the count by the number of layers or flows, so the
// budgets — the counts measured when they were set plus ~25% — catch it.
func TestSimulateAllocBudget(t *testing.T) {
	cases := []struct {
		design   string
		workload string
		strategy train.Strategy
		budget   float64
	}{
		// Measured: 24, 20, 29 and 18 allocs/op once flows became handles
		// on a pointer-free flow table with a doubling stamp table (24, 21,
		// 37 and 31 with a 64-flow arena; 32, 27, 40 and 32 once each
		// channel declared its groups once, without a cap map; 32, 29, 40
		// and 34 before;
		// 50, 47, 599 and 593 before both engines ran one iteration kernel
		// and Schedule.Validate stopped copying each layer's sync ops; 104,
		// 68, 1169 and 608 before the water-fill stopped keeping per-unit
		// member lists; 305, 265, 3421 and 2856 before span names went lazy
		// and the per-flow tag map went).
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
		MustSimulate(d, s) // warm the schedule's prepared vmem analysis
		allocs := testing.AllocsPerRun(5, func() { MustSimulate(d, s) })
		t.Logf("%s %s %v: %.0f allocs/op", c.design, c.workload, c.strategy, allocs)
		if allocs > c.budget {
			t.Errorf("%s %s %v: iteration allocated %.0f objects/op, budget %.0f", c.design, c.workload, c.strategy, allocs, c.budget)
		}
	}
}
