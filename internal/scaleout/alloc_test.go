package scaleout

import (
	"testing"

	"github.com/memcentric/mcdla/internal/runner"
)

// TestSimulateAllocBudget pins the steady-state heap cost of one event-driven
// plane iteration on the BERT plane. The first call builds the schedule on
// the plane's engine, with its shared vmem analysis; later iterations re-run
// the full event loop (every layer boundary reruns the channels'
// water-fill), so this budget is what keeps the sim.Channel scratch reuse
// and the train.Schedule/vmem plan sharing from silently regressing.
func TestSimulateAllocBudget(t *testing.T) {
	p := Default(2)
	p.Schedules = runner.New(runner.Options{}).Schedule
	const batch = 2 * 8 * 32
	run := func() {
		if _, err := p.Simulate("BERT-Large", batch, true, DataParallel); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(5, run) // its warm-up run builds the schedule
	t.Logf("scaleout.Simulate(BERT-Large) steady state: %.0f allocs/op", allocs)
	// Measured 47 allocs/op once flows became handles on a pointer-free
	// flow table with a doubling stamp table (74 with a 64-flow arena; 87
	// once each channel declared its groups once, without a cap map and
	// the member fill's sort scratch; 126 before
	// that; 514 before the plane ran the shared iteration kernel with
	// staged ops held by value and the prefetch window counted in place; 727 before the water-fill stopped keeping per-unit
	// member lists; ~4.0k before span names were built only for a trace log,
	// ~93.5k before the sim.Channel scratch buffers landed); the budget
	// leaves ~25% headroom for benign drift while still catching any
	// per-event or per-span regression.
	const budget = 59
	if allocs > budget {
		t.Fatalf("plane iteration allocated %.0f objects/op, budget %d", allocs, budget)
	}
}
