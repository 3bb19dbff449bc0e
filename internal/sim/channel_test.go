package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/memcentric/mcdla/internal/units"
)

func gb(x float64) units.Bytes { return units.Bytes(x * 1e9) }

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// lone starts a flow in a one-member group of its own at rate.
func lone(ch *Channel, t units.Time, size units.Bytes, rate units.Bandwidth, extra units.Time) Flow {
	return ch.Start(t, ch.Group(rate, false), size, extra, 0)
}

func TestSingleFlowUncontended(t *testing.T) {
	ch := NewChannel("pcie", units.GBps(16))
	f := lone(ch, 0, gb(16), units.GBps(16), 0)
	end := ch.Wait(0, f)
	want := 1.0
	if !almostEqual(end.Seconds(), want, 1e-9) {
		t.Fatalf("single flow completion = %v, want %v s", end, want)
	}
}

func TestFlowCappedBelowCapacity(t *testing.T) {
	ch := NewChannel("links", units.GBps(150))
	f := lone(ch, 0, gb(75), units.GBps(75), 0)
	end := ch.Wait(0, f)
	if !almostEqual(end.Seconds(), 1.0, 1e-9) {
		t.Fatalf("capped flow took %v, want 1 s", end)
	}
}

func TestTwoEqualFlowsShareCapacity(t *testing.T) {
	ch := NewChannel("ch", units.GBps(100))
	a := lone(ch, 0, gb(100), units.GBps(100), 0)
	b := lone(ch, 0, gb(100), units.GBps(100), 0)
	endA := ch.Wait(0, a)
	endB := ch.Wait(0, b)
	// Both run at 50 GB/s for 2 s.
	if !almostEqual(endA.Seconds(), 2.0, 1e-9) || !almostEqual(endB.Seconds(), 2.0, 1e-9) {
		t.Fatalf("equal flows finished at %v and %v, want 2 s each", endA, endB)
	}
}

func TestMaxMinFairnessWithCappedFlow(t *testing.T) {
	// Capacity 150; a one-member group at 25 gets 25, one at 150 takes the
	// remaining 125.
	ch := NewChannel("ch", units.GBps(150))
	a := lone(ch, 0, gb(25), units.GBps(25), 0)
	b := lone(ch, 0, gb(125), units.GBps(150), 0)
	endA := ch.Wait(0, a)
	endB := ch.Wait(0, b)
	if !almostEqual(endA.Seconds(), 1.0, 1e-9) {
		t.Errorf("capped flow finished at %v, want 1 s", endA)
	}
	if !almostEqual(endB.Seconds(), 1.0, 1e-9) {
		t.Errorf("uncapped flow finished at %v, want 1 s", endB)
	}
}

func TestRateReallocationAfterCompletion(t *testing.T) {
	// A 150 GB flow on a 100 GB/s channel, with a 100 GB flow arriving at
	// t=1. First flow: 1 s alone at 100, then shares at 50.
	ch := NewChannel("ch", units.GBps(100))
	a := lone(ch, 0, gb(150), units.GBps(100), 0)
	b := lone(ch, 1, gb(100), units.GBps(100), 0)
	endA := ch.Wait(1, a)
	// a has 50 GB left at t=1, shares 50 GB/s: finishes at t=2.
	if !almostEqual(endA.Seconds(), 2.0, 1e-9) {
		t.Errorf("flow a finished at %v, want 2 s", endA)
	}
	endB := ch.Wait(endA, b)
	// b has 50 GB left at t=2, then runs alone at 100: finishes at 2.5.
	if !almostEqual(endB.Seconds(), 2.5, 1e-9) {
		t.Errorf("flow b finished at %v, want 2.5 s", endB)
	}
}

func TestExtraLatencyAppended(t *testing.T) {
	ch := NewChannel("ring", units.GBps(75))
	f := lone(ch, 0, gb(75), units.GBps(75), units.Seconds(3e-3))
	end := ch.Wait(0, f)
	if !almostEqual(end.Seconds(), 1.003, 1e-9) {
		t.Fatalf("flow with extra latency finished at %v, want 1.003 s", end)
	}
}

func TestZeroSizeFlowCompletesImmediately(t *testing.T) {
	ch := NewChannel("ch", units.GBps(10))
	f := lone(ch, 5, 0, units.GBps(10), units.Seconds(2e-6))
	if !f.Done() {
		t.Fatal("zero-size flow not immediately done")
	}
	if got := ch.Wait(5, f); !almostEqual(got.Seconds(), 5+2e-6, 1e-12) {
		t.Fatalf("zero-size flow wait returned %v", got)
	}
}

func TestWaitNeverReturnsBeforeCaller(t *testing.T) {
	ch := NewChannel("ch", units.GBps(100))
	f := lone(ch, 0, gb(1), units.GBps(100), 0)
	// Flow done at 0.01 s; caller at 1 s must resume at 1 s.
	if got := ch.Wait(1, f); got != 1 {
		t.Fatalf("Wait returned %v, want caller time 1 s", got)
	}
}

func TestDrainReturnsLastCompletion(t *testing.T) {
	ch := NewChannel("ch", units.GBps(100))
	lone(ch, 0, gb(50), units.GBps(100), 0)
	lone(ch, 0, gb(150), units.GBps(100), 0)
	end := ch.Drain(0)
	// Total 200 GB at 100 GB/s aggregate: done at 2 s.
	if !almostEqual(end.Seconds(), 2.0, 1e-9) {
		t.Fatalf("drain finished at %v, want 2 s", end)
	}
	if ch.inFlight != 0 {
		t.Fatalf("drain left %d flows active", ch.inFlight)
	}
}

func TestStatsAccounting(t *testing.T) {
	ch := NewChannel("ch", units.GBps(100))
	a := lone(ch, 0, gb(30), units.GBps(100), 0)
	ch.Wait(0, a)
	if got := ch.Stats().TotalBytes; !almostEqual(got, float64(gb(30)), 1) {
		t.Errorf("bytes after the offload = %g, want 30 GB", got)
	}
	b := lone(ch, 1, gb(20), units.GBps(100), 0)
	ch.Wait(1, b)
	s := ch.Stats()
	if !almostEqual(s.TotalBytes, float64(gb(50)), 1) {
		t.Errorf("total bytes = %g", s.TotalBytes)
	}
	// Busy: 0.3 s for a, then idle 0.7, then 0.2 for b.
	if !almostEqual(s.BusyTime.Seconds(), 0.5, 1e-9) {
		t.Errorf("busy time = %v, want 0.5 s", s.BusyTime)
	}
	if got := s.PeakRate.GBps(); !almostEqual(got, 100, 1e-6) {
		t.Errorf("peak rate = %g GB/s, want 100", got)
	}
}

func TestPeakRateWithConcurrentCappedFlows(t *testing.T) {
	ch := NewChannel("ch", units.GBps(150))
	lone(ch, 0, gb(10), units.GBps(50), 0)
	lone(ch, 0, gb(10), units.GBps(75), 0)
	ch.Drain(0)
	if got := ch.Stats().PeakRate.GBps(); !almostEqual(got, 125, 1e-6) {
		t.Fatalf("peak rate = %g GB/s, want 125", got)
	}
}

func TestStartPanicsOnNegativeSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative size")
		}
	}()
	ch := NewChannel("ch", units.GBps(10))
	lone(ch, 0, -1, units.GBps(10), 0)
}

// TestStartPanicsOnBadExtra: a flow's completion stamp needs a
// non-negative extra latency, so a negative or NaN one is a caller bug.
func TestStartPanicsOnBadExtra(t *testing.T) {
	for _, extra := range []units.Time{-1e-9, units.Time(math.NaN())} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("extra latency %v: expected panic", extra)
				}
			}()
			ch := NewChannel("ch", units.GBps(10))
			lone(ch, 0, gb(1), units.GBps(10), extra)
		}()
	}
}

func TestNewChannelPanicsOnZeroCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero capacity")
		}
	}()
	NewChannel("bad", 0)
}

// conservesBytes drains ch from t and reports whether it moved exactly the
// total bytes started on it, no faster than its capacity allows.
func conservesBytes(ch *Channel, t units.Time, total float64) bool {
	end := ch.Drain(t)
	if !almostEqual(ch.Stats().TotalBytes, total, total*1e-9+1) {
		return false
	}
	return end.Seconds() >= total/float64(ch.Capacity())-1e-9
}

// Property: bytes are conserved — for any set of flows, the bytes moved
// after draining equal the requested sizes, and the drain time is at least
// total/capacity (work conservation). The quick inputs are lone flows; a
// seeded grid adds shared and unshared groups, priority classes and
// staggered issue times.
func TestPropertyByteConservation(t *testing.T) {
	f := func(sizes []uint16, capGBps uint8, capsRaw []uint8) bool {
		if len(sizes) == 0 || len(sizes) > 12 {
			return true
		}
		capacity := units.GBps(float64(capGBps%100) + 1)
		ch := NewChannel("prop", capacity)
		total := float64(0)
		for i, sz := range sizes {
			size := units.Bytes(sz) * units.MB
			maxRate := capacity
			if len(capsRaw) > 0 {
				maxRate = units.GBps(float64(capsRaw[i%len(capsRaw)]%100) + 1)
			}
			lone(ch, 0, size, maxRate, 0)
			total += float64(size)
		}
		return conservesBytes(ch, 0, total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		ch := NewChannel("grid", units.GBps(float64(10+rng.Intn(200))))
		var groups []Group
		for i := 0; i < 3; i++ {
			groups = append(groups, ch.Group(units.GBps(float64(5+rng.Intn(100))), rng.Intn(2) == 0))
		}
		var issue units.Time
		total := 0.0
		for i := 0; i < 3+rng.Intn(12); i++ {
			size := units.Bytes(1+rng.Intn(4096)) * units.MB
			g := groups[rng.Intn(len(groups))]
			if rng.Intn(4) == 0 {
				g = ch.Group(units.GBps(float64(1+rng.Intn(150))), false)
			}
			ch.Start(issue, g, size, 0, rng.Intn(3))
			total += float64(size)
			issue += units.Time(rng.Float64() * 0.05)
		}
		if !conservesBytes(ch, issue, total) {
			t.Fatalf("trial %d: moved %.3f bytes of %.3f", trial, ch.Stats().TotalBytes, total)
		}
	}
}

// Property: max-min fairness never allocates more than capacity and never
// exceeds any flow's cap.
func TestPropertyAllocationRespectsCaps(t *testing.T) {
	f := func(n uint8, caps []uint8) bool {
		count := int(n%8) + 1
		ch := NewChannel("prop", units.GBps(100))
		for i := 0; i < count; i++ {
			r := units.GBps(1)
			if len(caps) > 0 {
				r = units.GBps(float64(caps[i%len(caps)]%200) + 1)
			}
			lone(ch, 0, units.GB, r, 0)
		}
		var sum units.Bandwidth
		for _, fl := range flowsInFlight(ch) {
			if fl.rate > ch.groups[fl.group].rate+1 {
				return false
			}
			sum += fl.rate
		}
		return sum <= ch.capacity+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMonotoneAdvance(t *testing.T) {
	ch := NewChannel("ch", units.GBps(10))
	ch.AdvanceTo(5)
	ch.AdvanceTo(3) // no-op, must not rewind
	if ch.now != 5 {
		t.Fatalf("channel clock rewound to %v", ch.now)
	}
}

func TestGroupCapBoundsAggregate(t *testing.T) {
	// Three DMA flows in a shared 50 GB/s group on a 150 GB/s channel: the
	// group moves 50 GB in 1 s no matter how many member flows it spreads
	// over.
	ch := NewChannel("links", units.GBps(150))
	virt := ch.Group(units.GBps(50), true)
	var flows []Flow
	for i := 0; i < 3; i++ {
		flows = append(flows, ch.Start(0, virt, gb(50.0/3), 0, 0))
	}
	end := ch.Drain(0)
	if !almostEqual(end.Seconds(), 1.0, 1e-6) {
		t.Fatalf("grouped flows drained at %v, want 1 s", end)
	}
	for _, f := range flows {
		if !f.Done() {
			t.Fatal("flow not complete after drain")
		}
	}
}

func TestUnsharedGroupCapsEachMember(t *testing.T) {
	// Three flows in an unshared 20 GB/s group on a 100 GB/s channel each
	// move at 20: the group demands 60 in total.
	ch := NewChannel("host", units.GBps(100))
	dma := ch.Group(units.GBps(20), false)
	for i := 0; i < 3; i++ {
		ch.Start(0, dma, gb(20), 0, 0)
	}
	if end := ch.Drain(0); !almostEqual(end.Seconds(), 1.0, 1e-9) {
		t.Fatalf("unshared group drained at %v, want 1 s", end)
	}
	if got := ch.Stats().PeakRate.GBps(); !almostEqual(got, 60, 1e-6) {
		t.Fatalf("peak rate = %g GB/s, want 60", got)
	}
}

func TestGroupsShareChannelFairly(t *testing.T) {
	// virt group capped at 50, sync group capped at 75, on 150 capacity:
	// no contention — both run at their caps.
	ch := NewChannel("links", units.GBps(150))
	v := ch.Start(0, ch.Group(units.GBps(50), true), gb(50), 0, 0)
	s := ch.Start(0, ch.Group(units.GBps(75), true), gb(75), 0, 0)
	if got := ch.Wait(0, v).Seconds(); !almostEqual(got, 1.0, 1e-6) {
		t.Fatalf("virt group finished at %g s, want 1", got)
	}
	if got := ch.Wait(0, s).Seconds(); !almostEqual(got, 1.0, 1e-6) {
		t.Fatalf("sync group finished at %g s, want 1", got)
	}
}

func TestGroupContentionSplitsCapacity(t *testing.T) {
	// Two 100-capped groups on a 150 channel contend: max-min gives each 75.
	ch := NewChannel("links", units.GBps(150))
	fa := ch.Start(0, ch.Group(units.GBps(100), true), gb(75), 0, 0)
	fb := ch.Start(0, ch.Group(units.GBps(100), true), gb(75), 0, 0)
	ea := ch.Wait(0, fa)
	eb := ch.Wait(0, fb)
	if !almostEqual(ea.Seconds(), 1.0, 1e-6) || !almostEqual(eb.Seconds(), 1.0, 1e-6) {
		t.Fatalf("contending groups finished at %v / %v, want 1 s each", ea, eb)
	}
}

func TestLoneFlowCompetesWithGroups(t *testing.T) {
	// A lone flow (rate 100) against a 50-capped group on 120 capacity:
	// water-fill gives the group 50 and the lone flow 70.
	ch := NewChannel("links", units.GBps(120))
	g := ch.Start(0, ch.Group(units.GBps(50), true), gb(50), 0, 0)
	solo := lone(ch, 0, gb(70), units.GBps(100), 0)
	if got := ch.Wait(0, g).Seconds(); !almostEqual(got, 1.0, 1e-6) {
		t.Fatalf("group finished at %g s, want 1", got)
	}
	if got := ch.Wait(0, solo).Seconds(); !almostEqual(got, 1.0, 1e-6) {
		t.Fatalf("lone flow finished at %g s, want 1", got)
	}
}

func TestGroupPanics(t *testing.T) {
	ch := NewChannel("ch", units.GBps(10))
	other := NewChannel("other", units.GBps(10)).Group(units.GBps(1), false)
	for _, f := range []func(){
		func() { ch.Group(0, true) },
		func() { ch.Group(-1, false) },
		func() { ch.Start(0, other, 1, 0, 0) },
		func() { ch.Start(0, Group{}, 1, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// Property: with a single shared group holding all flows, the drain time
// equals total bytes over min(channel capacity, group rate), regardless of
// how the bytes are split across member flows.
func TestPropertyGroupWorkConservation(t *testing.T) {
	f := func(parts []uint16, capRaw, groupRaw uint8) bool {
		if len(parts) == 0 || len(parts) > 10 {
			return true
		}
		capacity := units.GBps(float64(capRaw%100) + 10)
		groupCap := units.GBps(float64(groupRaw%100) + 5)
		ch := NewChannel("prop", capacity)
		g := ch.Group(groupCap, true)
		total := 0.0
		for _, p := range parts {
			size := units.Bytes(p%2048+1) * units.MB
			ch.Start(0, g, size, 0, 0)
			total += float64(size)
		}
		end := ch.Drain(0)
		eff := float64(capacity)
		if float64(groupCap) < eff {
			eff = float64(groupCap)
		}
		want := total / eff
		return almostEqual(end.Seconds(), want, want*1e-6+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroSizeFlowStampsFromChannelClock(t *testing.T) {
	ch := NewChannel("ch", units.GBps(10))
	// Advance the clock well past the zero-size flow's nominal issue time.
	lone(ch, 0, gb(50), units.GBps(10), 0)
	ch.AdvanceTo(5)
	before := ch.Stats()
	f := lone(ch, 1, 0, units.GBps(10), 2)
	if !f.Done() {
		t.Fatal("zero-size flow must complete immediately")
	}
	// doneAt must clamp against the channel clock (5), not the stale issue
	// time (1): 5 + 2 = 7, never 3.
	if !almostEqual(f.DoneAt().Seconds(), 7, 1e-12) {
		t.Fatalf("doneAt = %v, want 7 s (clock 5 + extra 2)", f.DoneAt())
	}
	if after := ch.Stats(); after != before {
		t.Fatalf("zero-size flow changed the stats: %+v, want %+v", after, before)
	}
	// A zero-size flow issued after the clock advances stamps from t.
	g := lone(ch, 9, 0, units.GBps(10), 1)
	if !almostEqual(g.DoneAt().Seconds(), 10, 1e-12) {
		t.Fatalf("doneAt = %v, want 10 s", g.DoneAt())
	}
}

func TestPriorityClassesWithinGroup(t *testing.T) {
	// Two flows share a 10 GB/s group; the high-priority one takes the whole
	// group until it drains, then the background flow proceeds.
	ch := NewChannel("dma", units.GBps(10))
	virt := ch.Group(units.GBps(10), true)
	bg := ch.Start(0, virt, gb(10), 0, 0)
	hi := ch.Start(0, virt, gb(10), 0, 5)
	endHi := ch.Wait(0, hi)
	if !almostEqual(endHi.Seconds(), 1.0, 1e-9) {
		t.Fatalf("demand flow finished at %v, want 1 s (full group rate)", endHi)
	}
	endBg := ch.Wait(endHi, bg)
	if !almostEqual(endBg.Seconds(), 2.0, 1e-9) {
		t.Fatalf("background flow finished at %v, want 2 s", endBg)
	}
}

func TestLowerClassTakesLeftover(t *testing.T) {
	// An unshared 10 GB/s group alone on a 25 GB/s channel: its top-class
	// flow moves at 10, and the 15 GB/s left over go to the classes below,
	// highest first: 10 to class 1, the last 5 to class 0.
	ch := NewChannel("host", units.GBps(25))
	dma := ch.Group(units.GBps(10), false)
	for pri := 0; pri < 3; pri++ {
		ch.Start(0, dma, gb(10), 0, pri)
	}
	for i, want := range []float64{5, 10, 10} {
		if got := flowsInFlight(ch)[i].rate.GBps(); !almostEqual(got, want, 1e-9) {
			t.Errorf("class %d flow moves at %g GB/s, want %g", i, got, want)
		}
	}
}

func TestPriorityDoesNotCrossGroups(t *testing.T) {
	// A high-priority flow in one group must not starve another group: the
	// two groups still split the channel max-min fairly.
	ch := NewChannel("links", units.GBps(100))
	a := ch.Start(0, ch.Group(units.GBps(100), false), gb(50), 0, 9)
	b := lone(ch, 0, gb(50), units.GBps(100), 0)
	endA := ch.Wait(0, a)
	endB := ch.Wait(endA, b)
	if !almostEqual(endA.Seconds(), 1.0, 1e-9) || !almostEqual(endB.Seconds(), 1.0, 1e-9) {
		t.Fatalf("cross-group priority leak: a=%v b=%v, want 1 s each", endA, endB)
	}
}

// TestSubResolutionCompletionTerminates: a flow whose completion delta is
// below the float64 resolution of a late channel clock must still complete
// in Wait and Drain instead of spinning on a no-op AdvanceTo. So must a
// flow at an infinite rate (a 1e308 GB/s link), whose every delta is zero.
func TestSubResolutionCompletionTerminates(t *testing.T) {
	const now = units.Time(1000) // resolution ~1e-13 s; the flows need ~1e-18 s
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, gbps := range []float64{1e12, 1e308} {
			ch := NewChannel("fast", units.GBps(gbps))
			f := lone(ch, now, 1024, units.GBps(gbps), 0)
			if got := ch.Wait(now, f); got != now {
				t.Errorf("%g GB/s: Wait returned %v, want %v", gbps, got, now)
			}
			lone(ch, now, 1024, units.GBps(gbps), 0)
			lone(ch, now, 2048, units.GBps(gbps), 0)
			if got := ch.Drain(now); got != now || ch.inFlight != 0 {
				t.Errorf("%g GB/s: Drain returned %v with %d flows active, want %v and none", gbps, got, ch.inFlight, now)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Wait/Drain spun on a sub-resolution completion")
	}
}
