package sim

import (
	"testing"

	"github.com/memcentric/mcdla/internal/units"
)

// TestChannelReallocateAllocBudget pins the steady-state heap cost of the
// rate-reallocation hot path: every Start/completion reruns the two-level
// water-fill, and after warm-up all of its working storage (unit lists,
// fill shares, sort orders, the Drain snapshot) must come from Channel
// scratch. The only permitted heap traffic is the amortized flow-arena
// block — one allocation per arenaBlock flow starts.
func TestChannelReallocateAllocBudget(t *testing.T) {
	ch := NewChannel("switch", units.GBps(150))
	ch.SetGroupCap("virt", units.GBps(40))
	ch.SetGroupCap("sync", units.GBps(75))
	var now units.Time
	round := func() {
		solo := ch.Start(now, "solo", 64*units.MB, units.GBps(25), 0)
		offload := ch.StartGroup(now, "offload", "virt", 32*units.MB, units.GBps(40), 0)
		prefetch := ch.StartGroupPriority(now, "prefetch", "virt", 48*units.MB, units.GBps(40), 0, 7)
		ch.StartGroup(now, "sync/dW", "sync", 96*units.MB, units.GBps(75), 0)
		now = ch.Wait(now, solo)
		now = ch.Wait(now, offload)
		now = ch.Wait(now, prefetch)
		now = ch.Drain(now)
	}
	round() // warm the scratch buffers and the first arena block
	allocs := testing.AllocsPerRun(200, round)
	// 4 flows/round against a 64-slot arena: amortized 1/16 allocation per
	// round. Anything near 1 means a scratch buffer regressed to the heap.
	if allocs > 0.5 {
		t.Fatalf("channel water-fill round allocated %.2f objects/op, budget 0.5", allocs)
	}
}
