package sim

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/memcentric/mcdla/internal/units"
)

// referenceRates is the sorted two-level water-fill that allocate's
// one-pass member fill replaced, kept as its oracle: the top-level fill
// across groups, then in each group a stable sort by descending priority
// and an ascending-cap fill per class, each class taking what the classes
// above it left. Both levels use referenceFill, not fillScratch.
func referenceRates(c *Channel) map[*Flow]float64 {
	var ids []int
	var members [][]*Flow
	for _, f := range c.flows {
		i := slices.Index(ids, f.group)
		if i < 0 {
			i = len(ids)
			ids = append(ids, f.group)
			members = append(members, nil)
		}
		members[i] = append(members[i], f)
	}
	var caps []float64
	for i, fs := range members {
		g := c.groups[ids[i]]
		groupCap, sum := math.Inf(1), 0.0
		if g.shared {
			groupCap = float64(g.rate)
		}
		for range fs {
			sum += float64(g.rate)
		}
		caps = append(caps, math.Min(groupCap, sum))
	}
	shares := referenceFill(caps, float64(c.capacity))
	out := make(map[*Flow]float64, len(c.flows))
	for i, fs := range members {
		rate := float64(c.groups[ids[i]].rate)
		sort.SliceStable(fs, func(a, b int) bool { return fs[a].pri > fs[b].pri })
		remaining := shares[i]
		for lo := 0; lo < len(fs); {
			hi := lo
			for hi < len(fs) && fs[hi].pri == fs[lo].pri {
				hi++
			}
			classCaps := make([]float64, hi-lo)
			for k := range classCaps {
				classCaps[k] = rate
			}
			for k, r := range referenceFill(classCaps, remaining) {
				out[fs[lo+k]] = r
				remaining -= r
			}
			lo = hi
		}
	}
	return out
}

// referenceFill is a general max-min fill: caps in ascending order, equal
// caps in input order, each taking math.Min of its cap and an equal split
// of what is left.
func referenceFill(caps []float64, capacity float64) []float64 {
	order := make([]int, len(caps))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return caps[order[a]] < caps[order[b]] })
	out := make([]float64, len(caps))
	for k, i := range order {
		out[i] = math.Min(caps[i], capacity/float64(len(order)-k))
		capacity -= out[i]
	}
	return out
}

// referenceNext scans rates for the time until the earliest completion,
// with nextCompletionDelta's expression.
func referenceNext(c *Channel, rates map[*Flow]float64) float64 {
	next := math.Inf(1)
	for _, f := range c.flows {
		r := rates[f]
		if r <= 0 {
			continue
		}
		remaining := f.remaining
		if remaining < byteEpsilon {
			remaining = byteEpsilon
		}
		if d := remaining / r; d < next {
			next = d
		}
	}
	return next
}

// fillRates are the group rates in GB/s a decoded channel draws from: a
// small set, so equal caps are common.
var fillRates = []float64{10, 25, 40, 75, 100.0 / 3, 150}

// fillStart is one decoded flow. A staggered flow starts once the channel
// has run halfway to its next completion, so the fill it triggers follows
// a partial progress.
type fillStart struct {
	group     Group
	pri       int
	size      units.Bytes
	staggered bool
}

// decodeChannel builds a channel and its flows from data: a capacity byte,
// a layout byte (1–4 groups, and which of them are shared), one rate byte
// per group, then two bytes per flow, at most 64 flows: its group, priority
// class (0–3) and whether it is staggered (one value in four), and its
// size. Missing bytes read as zero.
func decodeChannel(data []byte) (*Channel, []fillStart) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	ch := NewChannel("fill", units.GBps(float64(10+next())))
	layout := next()
	groups := make([]Group, 1+layout%4)
	for i := range groups {
		r := next()
		rate := fillRates[r%len(fillRates)] * float64(1+r/len(fillRates)%3)
		groups[i] = ch.Group(units.GBps(rate), layout>>(2+i)&1 == 1)
	}
	var starts []fillStart
	for len(data) > 0 && len(starts) < 64 {
		gp, size := next(), next()
		starts = append(starts, fillStart{
			group:     groups[gp%len(groups)],
			pri:       gp / 4 % 4,
			size:      units.Bytes(1+size) * 4 * units.MB,
			staggered: gp>>4&3 == 3,
		})
	}
	return ch, starts
}

// randomFillInput draws a decodeChannel input: a share of flows outside
// priority class 0, and in one trial in three a bulk class of 13–40
// members, past sort.Sort's insertion-sort cutoff.
func randomFillInput(rng *rand.Rand) []byte {
	data := []byte{byte(40 + rng.Intn(216)), byte(rng.Intn(256))}
	for i := 0; i <= int(data[1])%4; i++ {
		data = append(data, byte(rng.Intn(256)))
	}
	if rng.Intn(3) == 0 {
		gp := byte(rng.Intn(256))
		for i, n := 0, 13+rng.Intn(28); i < n; i++ {
			data = append(data, gp, byte(rng.Intn(256)))
		}
	}
	priRate := rng.Float64() * 0.5
	for i, n := 0, 1+rng.Intn(40); i < n; i++ {
		gp := byte(rng.Intn(256))
		if rng.Float64() >= priRate {
			gp &^= 12 // class 0
		}
		data = append(data, gp, byte(rng.Intn(256)))
	}
	return data
}

// fillCoverage counts the flow states a fill check walked through: groups
// with more than one priority class, classes of more than 12 members, and
// groups with a lower class whose share ran out above it (spent) or
// reached it (leftover).
type fillCoverage struct{ multiClass, bigClass, spent, leftover int }

func (c fillCoverage) complete() bool {
	return c.multiClass > 0 && c.bigClass > 0 && c.spent > 0 && c.leftover > 0
}

// checkFill decodes a channel from data, starts its flows and then drains
// it one completion at a time. After every start, partial advance and
// completion it compares, by their bits, every flow's rate with the
// reference route's, PeakRate with the largest reference total summed in
// flow order, and the channel's next-completion delta with a fresh scan of
// the reference rates.
func checkFill(tb testing.TB, data []byte, cov *fillCoverage) {
	tb.Helper()
	ch, starts := decodeChannel(data)
	var peak, next float64
	check := func(event string, n int) {
		tb.Helper()
		want := referenceRates(ch)
		total := 0.0
		top := map[int]int{}
		class := map[[2]int]int{}
		for _, f := range ch.flows {
			total += want[f]
			if p, ok := top[f.group]; !ok || f.pri > p {
				top[f.group] = f.pri
			}
			class[[2]int{f.group, f.pri}]++
		}
		peak = max(peak, total)
		if got := float64(ch.stats.PeakRate); math.Float64bits(got) != math.Float64bits(peak) {
			tb.Fatalf("%s %d: peak rate %v, reference %v", event, n, got, peak)
		}
		if len(ch.flows) == 0 {
			return
		}
		next = referenceNext(ch, want)
		if got := float64(ch.nextCompletionDelta()); math.Float64bits(got) != math.Float64bits(next) {
			tb.Fatalf("%s %d: next completion in %v, reference %v", event, n, got, next)
		}
		spent, leftover := map[int]bool{}, map[int]bool{}
		for i, f := range ch.flows {
			if math.Float64bits(float64(f.rate)) != math.Float64bits(want[f]) {
				tb.Fatalf("%s %d, flow %d (group %d, class %d): rate %v, reference %v",
					event, n, i, f.group, f.pri, float64(f.rate), want[f])
			}
			if f.pri < top[f.group] {
				spent[f.group] = spent[f.group] || f.rate == 0
				leftover[f.group] = leftover[f.group] || f.rate > 0
			}
		}
		for k, members := range class {
			if members > 12 {
				cov.bigClass++
			}
			if k[1] < top[k[0]] {
				cov.multiClass++
			}
		}
		for g := range top {
			if spent[g] {
				cov.spent++
			}
			if leftover[g] {
				cov.leftover++
			}
		}
	}
	for i, s := range starts {
		at := ch.now
		if s.staggered && len(ch.flows) > 0 {
			at += units.Time(next / 2)
			ch.AdvanceTo(at)
			check("advance before start", i)
		}
		ch.Start(at, s.group, s.size, 0, s.pri)
		check("start", i)
	}
	for step := 0; len(ch.flows) > 0; step++ {
		ch.advanceToNextCompletion()
		check("completion", step)
	}
}

// TestFillMatchesReference drives seeded random flow sets, with shared and
// unshared groups, 1–4 priority classes and staggered starts, through
// allocate at every start and completion and checks each fill against the
// reference route.
func TestFillMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	var cov fillCoverage
	for trial := 0; trial < 300; trial++ {
		checkFill(t, randomFillInput(rng), &cov)
	}
	t.Logf("coverage %+v", cov)
	if !cov.complete() {
		t.Fatalf("coverage %+v: want every count above zero", cov)
	}
}

// FuzzChannelFill decodes a flow set from its input and checks every fill
// against the reference route. Its seed corpus must reach every coverage
// count.
func FuzzChannelFill(f *testing.F) {
	rng := rand.New(rand.NewSource(20))
	var cov fillCoverage
	for i := 0; i < 12; i++ {
		seed := randomFillInput(rng)
		checkFill(f, seed, &cov)
		f.Add(seed)
	}
	if !cov.complete() {
		f.Fatalf("seed corpus coverage %+v: want every count above zero", cov)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFill(t, data, &fillCoverage{})
	})
}

// TestFillsCountsFlowSetChanges pins the work counter exactly: every start
// and every completion re-fills the channel once, and a round over an empty
// channel is free.
func TestFillsCountsFlowSetChanges(t *testing.T) {
	const n = 10
	ch := NewChannel("burst", units.GBps(100))
	burst := ch.Group(units.GBps(100), false)
	var last *Flow
	for i := 0; i < n; i++ {
		last = ch.Start(0, burst, gb(1), 0, 0)
	}
	ch.Wait(0, last) // all n complete together, leaving the channel empty
	if got := ch.Stats().Fills; got != n {
		t.Fatalf("%d same-instant starts then a Wait: %d fills, want %d", n, got, n)
	}

	ch = NewChannel("handoff", units.GBps(100))
	a := lone(ch, 0, gb(1), units.GBps(100), 0)
	lone(ch, 0, gb(10), units.GBps(100), 0)
	before := ch.Stats().Fills
	end := ch.Wait(0, a)
	lone(ch, end, gb(1), units.GBps(100), 0)
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
		lone(ch, 0, gb(1), units.GBps(16), 0)
	}
	ch.Drain(0)
	if peak := ch.Stats().PeakRate; peak <= ch.Capacity() {
		t.Fatalf("peak rate %v, want the three-flow state's total just above capacity %v", float64(peak), float64(ch.Capacity()))
	}
}
