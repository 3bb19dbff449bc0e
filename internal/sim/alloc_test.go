package sim

import (
	"testing"

	"github.com/memcentric/mcdla/internal/units"
)

// TestChannelReallocateAllocBudget pins the steady-state heap cost of the
// rate-reallocation hot path: every Start/completion reruns the fill, and
// after warm-up all of its working storage (fill caps, shares and sort
// order, the class tables and their heaps) must come from Channel scratch,
// through classes arriving and leaving too. The only permitted heap
// traffic is the stamp table's growth, which doubles, so its allocations
// per flow start fall toward zero.
func TestChannelReallocateAllocBudget(t *testing.T) {
	ch := NewChannel("switch", units.GBps(150))
	solo := ch.Group(units.GBps(25), false)
	virt := ch.Group(units.GBps(40), true)
	sync := ch.Group(units.GBps(75), true)
	var now units.Time
	round := func() {
		// Eight offloads in one class; a sync flow's class joins and
		// leaves them, and a prefetch class sits above the offloads.
		var last Flow
		for i := 1; i <= 8; i++ {
			last = ch.Start(now, virt, units.Bytes(i)*units.MB, 0, 0)
		}
		now = ch.Wait(now, ch.Start(now, sync, units.MB, 0, 0))
		now = ch.Wait(now, last)
		s := ch.Start(now, solo, 64*units.MB, 0, 0)
		offload := ch.Start(now, virt, 32*units.MB, 0, 0)
		prefetch := ch.Start(now, virt, 48*units.MB, 0, 7)
		ch.Start(now, sync, 96*units.MB, 0, 0)
		now = ch.Wait(now, s)
		now = ch.Wait(now, offload)
		now = ch.Wait(now, prefetch)
		now = ch.Drain(now)
	}
	round() // warm the scratch buffers and the first stamp block
	allocs := testing.AllocsPerRun(200, round)
	// 13 flows/round against a doubling stamp table: 6 allocations in 200
	// rounds, which AllocsPerRun's whole-number average reads as 0. One
	// allocation per round means a scratch buffer regressed to the heap.
	if allocs != 0 {
		t.Fatalf("channel water-fill round allocated %v objects/op, want 0", allocs)
	}
}
