package scaleout

import (
	"testing"

	"github.com/memcentric/mcdla/internal/runner"
)

// TestSimulateAllocBudget pins the steady-state heap cost of one event-driven
// plane iteration on the BERT plane. The first call builds the schedule on
// the plane's engine, with its shared vmem analysis; later iterations re-run
// the full event loop (every layer boundary reruns the channels'
// water-fill), so this budget is what keeps the pooled channels and
// simulation tables and the train.Schedule/vmem plan sharing from silently
// regressing. Under -race sync.Pool drops a random share of what it is
// given, so a simulation may grow fresh tables, and the budget is then the
// fresh-table one.
func TestSimulateAllocBudget(t *testing.T) {
	p := Default(2)
	p.Schedules = runner.New(runner.Options{}).Schedule
	const batch = 2 * 8 * 32
	run := func() {
		if _, err := p.Simulate("BERT-Large", batch, true, DataParallel); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the schedule and the pools on the one processor AllocsPerRun
	// measures on: a pooled channel may take another's role, so each runs
	// every role before the count starts.
	testing.AllocsPerRun(2, run)
	allocs := testing.AllocsPerRun(5, run)
	t.Logf("scaleout.Simulate(BERT-Large) steady state: %.0f allocs/op", allocs)
	// Measured 0 allocs/op once each simulation took its channels and its
	// kernel and sync tables from pools, and the hybrid dW table went (45
	// before; 47 once flows became handles on a pointer-free flow table
	// with a doubling stamp table; 74 with a 64-flow arena; 87 once each
	// channel declared its groups once, without a cap map and the member
	// fill's sort scratch; 126 before that; 514 before the plane ran the
	// shared iteration kernel with staged ops held by value and the
	// prefetch window counted in place; 727 before the water-fill stopped
	// keeping per-unit member lists; ~4.0k before span names were built
	// only for a trace log, ~93.5k before the sim.Channel scratch buffers
	// landed). A quarter of 0 is no allocation, so the budget of 3 instead
	// leaves room for the runtime's own: MemStats counts the process, and
	// a new OS thread allocates its m and g on the heap. Tables allocated
	// per simulation cost 45, and the fresh-table budget under -race is
	// that count plus ~25%.
	budget := 3
	if raceEnabled {
		budget = 59
	}
	if allocs > float64(budget) {
		t.Fatalf("plane iteration allocated %.0f objects/op, budget %d", allocs, budget)
	}
}
