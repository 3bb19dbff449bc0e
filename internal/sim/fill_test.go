package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/memcentric/mcdla/internal/units"
)

// generalRates is the generic water-fill route: member lists per unit, the
// top-level fill across units, then priorityFill on every unit. allocate
// keeps this route for non-uniform units and fills uniform ones in one pass;
// the two must agree bit for bit.
func generalRates(c *Channel) map[*Flow]float64 {
	var groups []string
	var members [][]*Flow
	var top fillScratch
	for _, f := range c.flows {
		idx := -1
		for i, g := range groups {
			if f.group != "" && g == f.group {
				idx = i
			}
		}
		if idx < 0 {
			groupCap := float64(f.maxRate)
			if f.group != "" {
				groupCap = math.Inf(1)
				if g, has := c.groupCaps[f.group]; has {
					groupCap = float64(g)
				}
			}
			idx = len(groups)
			groups = append(groups, f.group)
			members = append(members, nil)
			top.caps = append(top.caps, groupCap)
		}
		members[idx] = append(members[idx], f)
	}
	for i, fs := range members {
		var sum float64
		for _, f := range fs {
			sum += float64(f.maxRate)
		}
		top.caps[i] = math.Min(top.caps[i], sum)
	}
	shares := top.fill(float64(c.capacity))
	out := make(map[*Flow]float64, len(c.flows))
	for i, fs := range members {
		for j, r := range c.priorityFill(shares[i], fs) {
			out[fs[j]] = r
		}
	}
	return out
}

// randomChannel builds a seeded flow set: 1–64 flows over 0–3 capped (or
// uncapped) groups plus independent flows, maxRates drawn from a small set
// so equal caps are common, and a share of non-zero priorities. One trial in
// three packs a uniform group of 13–40 members, past sort.Sort's
// insertion-sort cutoff.
func randomChannel(rng *rand.Rand) *Channel {
	rates := []float64{10, 25, 40, 75, 100.0 / 3, 150}
	ch := NewChannel("diff", units.GBps(float64(50+rng.Intn(250))))
	ngroups := rng.Intn(4)
	for g := 0; g < ngroups; g++ {
		if rng.Intn(4) > 0 {
			ch.SetGroupCap(fmt.Sprint("g", g), units.GBps(rates[rng.Intn(len(rates))]*float64(1+rng.Intn(3))))
		}
	}
	priRate := rng.Float64() * 0.5
	if ngroups > 0 && rng.Intn(3) == 0 {
		r := units.GBps(rates[rng.Intn(len(rates))])
		for i, n := 0, 13+rng.Intn(28); i < n; i++ {
			ch.StartGroup(0, "bulk", "g0", units.Bytes(1+rng.Intn(1<<30)), r, 0)
		}
	}
	for i, n := 0, 1+rng.Intn(64-len(ch.flows)); i < n; i++ {
		group := ""
		if ngroups > 0 && rng.Intn(3) > 0 {
			group = fmt.Sprint("g", rng.Intn(ngroups))
		}
		pri := 0
		if rng.Float64() < priRate {
			pri = 1 + rng.Intn(3)
		}
		r := units.GBps(rates[rng.Intn(len(rates))])
		ch.StartGroupPriority(0, "f", group, units.Bytes(1+rng.Intn(1<<30)), r, 0, pri)
	}
	return ch
}

// TestUniformFillMatchesGeneralRoute drives seeded random flow sets through
// allocate at every completion and compares each flow's rate, by its bits,
// with the generic route's.
func TestUniformFillMatchesGeneralRoute(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	var uniformBig, nonUniform int
	for trial := 0; trial < 300; trial++ {
		ch := randomChannel(rng)
		for step := 0; len(ch.flows) > 0; step++ {
			ch.allocate()
			for _, u := range ch.units {
				switch {
				case !u.uniform:
					nonUniform++
				case u.n > 12:
					uniformBig++
				}
			}
			want := generalRates(ch)
			for i, f := range ch.flows {
				if math.Float64bits(float64(f.rate)) != math.Float64bits(want[f]) {
					t.Fatalf("trial %d step %d flow %d (group %q pri %d cap %v): rate %v, general route %v",
						trial, step, i, f.group, f.pri, f.maxRate, float64(f.rate), want[f])
				}
			}
			ch.advanceToNextCompletion()
		}
	}
	if uniformBig == 0 || nonUniform == 0 {
		t.Fatalf("coverage: %d uniform units over 12 flows, %d non-uniform units; want both > 0", uniformBig, nonUniform)
	}
}

// TestFillsCountsFlowSetChanges pins the work counter exactly: every start
// and every completion re-fills the channel once, and a round over an empty
// channel is free.
func TestFillsCountsFlowSetChanges(t *testing.T) {
	const n = 10
	ch := NewChannel("burst", units.GBps(100))
	var last *Flow
	for i := 0; i < n; i++ {
		last = ch.Start(0, "f", gb(1), units.GBps(100), 0)
	}
	ch.Wait(0, last) // all n complete together, leaving the channel empty
	if got := ch.Stats().Fills; got != n {
		t.Fatalf("%d same-instant starts then a Wait: %d fills, want %d", n, got, n)
	}

	ch = NewChannel("handoff", units.GBps(100))
	a := ch.Start(0, "a", gb(1), units.GBps(100), 0)
	ch.Start(0, "c", gb(10), units.GBps(100), 0)
	before := ch.Stats().Fills
	end := ch.Wait(0, a)
	ch.Start(end, "b", gb(1), units.GBps(100), 0)
	if got := ch.Stats().Fills - before; got != 2 {
		t.Fatalf("a completion then a same-instant start: %d fills, want 2", got)
	}
}

// TestPeakRateCountsZeroDurationStates: PeakRate is the largest rounded
// total over every flow set the channel held, including sets that last zero
// simulated time. On a 16 GB/s channel, three equal flows' shares sum to one
// ulp above capacity while one, two or four sum to it exactly, so starting
// four flows at one instant peaks only in the passing three-flow state. A
// fill deferred to the next rate read would skip that state.
func TestPeakRateCountsZeroDurationStates(t *testing.T) {
	ch := NewChannel("host", units.GBps(16))
	for i := 0; i < 4; i++ {
		ch.Start(0, "f", gb(1), units.GBps(16), 0)
	}
	ch.Drain(0)
	if peak := ch.Stats().PeakRate; peak <= ch.Capacity() {
		t.Fatalf("peak rate %v, want the three-flow state's total just above capacity %v", float64(peak), float64(ch.Capacity()))
	}
}
