package scaleout

import (
	"testing"
)

// TestSimulateAllocBudget pins the steady-state heap cost of one event-driven
// plane iteration on the BERT plane. The first call pays for the schedule
// memo and the shared vmem analysis; warm iterations re-run the full event
// loop (every layer boundary reruns the channels' water-fill), so this budget
// is what keeps the sim.Channel scratch reuse and the train.Schedule/vmem
// plan sharing from silently regressing.
func TestSimulateAllocBudget(t *testing.T) {
	p := Default(2)
	const batch = 2 * 8 * 32
	run := func() {
		if _, err := p.Simulate("BERT-Large", batch, true, DataParallel); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the schedule memo and its prepared vmem analysis
	allocs := testing.AllocsPerRun(5, run)
	t.Logf("scaleout.Simulate(BERT-Large) steady state: %.0f allocs/op", allocs)
	// Measured 514 allocs/op once the water-fill stopped keeping per-unit
	// member lists (727 before that; ~4.0k before span names were built only
	// for a trace log, ~93.5k before the sim.Channel scratch buffers
	// landed); the budget leaves ~25% headroom for benign drift while still
	// catching any per-event or per-span regression.
	const budget = 643
	if allocs > budget {
		t.Fatalf("plane iteration allocated %.0f objects/op, budget %d", allocs, budget)
	}
}
