package sim

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/memcentric/mcdla/internal/units"
)

// refFlow is a flow of the reference channel: the channel's flow it
// shadows, and its own copy of the state the channel keeps.
type refFlow struct {
	f          *Flow
	group, pri int
	remaining  float64
	rate       float64
	extra      units.Time
	done       bool
	doneAt     units.Time
}

// refChannel is the oracle the channel's fill and event step are checked
// against. Its fill is the sorted two-level water-fill that allocate's
// one-pass member fill replaced: the top-level fill across groups, then in
// each group a stable sort by descending priority and an ascending-cap fill
// per class, each class taking what the classes above it left, with
// referenceFill at both levels. Its event step is the one the fused
// move-and-reap pass replaced: every flow moves, then a separate sweep
// stamps and drops the drained ones. It tallies what it walks through in
// cov.
type refChannel struct {
	capacity float64
	groups   []group
	now      units.Time
	flows    []*refFlow
	all      []*refFlow // every flow started, in start order
	total    float64    // bytes moved
	busy     units.Time
	peak     float64
	cov      *fillCoverage
}

func newRefChannel(ch *Channel, cov *fillCoverage) *refChannel {
	return &refChannel{capacity: float64(ch.capacity), groups: ch.groups, now: ch.now, cov: cov}
}

func (r *refChannel) start(t units.Time, f *Flow, s fillStart) {
	r.advanceTo(t)
	rf := &refFlow{f: f, group: s.group.id, pri: s.pri, remaining: float64(s.size), extra: s.extra}
	r.all = append(r.all, rf)
	r.flows = append(r.flows, rf)
	r.fill()
}

// fill sets every flow's rate and folds the total, summed in flow order,
// into the peak.
func (r *refChannel) fill() {
	if len(r.flows) == 0 {
		return
	}
	var ids []int
	var members [][]*refFlow
	for _, f := range r.flows {
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
		g := r.groups[ids[i]]
		groupCap, sum := math.Inf(1), 0.0
		if g.shared {
			groupCap = float64(g.rate)
		}
		for range fs {
			sum += float64(g.rate)
		}
		caps = append(caps, math.Min(groupCap, sum))
	}
	shares := referenceFill(caps, r.capacity)
	classes := 0
	for i, fs := range members {
		rate := float64(r.groups[ids[i]].rate)
		fs = slices.Clone(fs)
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
			for k, rt := range referenceFill(classCaps, remaining) {
				fs[lo+k].rate = rt
				remaining -= rt
			}
			lo, classes = hi, classes+1
		}
	}
	if len(members) == 1 && classes == 1 {
		g := r.groups[ids[0]]
		r.cov.uniform[b2i(g.shared)][b2i(r.capacity < caps[0])]++
	} else {
		r.cov.general++
	}
	total := 0.0
	for _, f := range r.flows {
		total += f.rate
	}
	r.peak = max(r.peak, total)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// next is the time until the earliest completion, with
// nextCompletionDelta's expression.
func (r *refChannel) next() float64 {
	next := math.Inf(1)
	for _, f := range r.flows {
		if f.rate <= 0 {
			continue
		}
		if d := max(f.remaining, byteEpsilon) / f.rate; d < next {
			next = d
		}
	}
	return next
}

func (r *refChannel) progress(dt units.Time) {
	if dt <= 0 {
		return
	}
	for _, f := range r.flows {
		moved := f.rate * float64(dt)
		if moved > f.remaining {
			moved = f.remaining
		}
		f.remaining -= moved
		r.total += moved
	}
	r.busy += dt
}

func (r *refChannel) forceDrainNearest() {
	var nearest *refFlow
	best := math.Inf(1)
	for _, f := range r.flows {
		if f.rate > 0 && f.remaining/f.rate < best {
			best, nearest = f.remaining/f.rate, f
		}
	}
	if nearest != nil {
		r.total += nearest.remaining
		nearest.remaining = 0
		r.cov.forced++
	}
}

// reap stamps and drops the drained flows, noting where in the flow list
// they sat, and re-fills.
func (r *refChannel) reap() {
	var head, middle, tail bool
	var kept []*refFlow
	for i, f := range r.flows {
		if f.remaining > byteEpsilon {
			kept = append(kept, f)
			continue
		}
		f.remaining, f.done, f.doneAt = 0, true, r.now+f.extra
		switch i {
		case 0:
			head = true
		case len(r.flows) - 1:
			tail = true
		default:
			middle = true
		}
	}
	r.cov.head += b2i(head)
	r.cov.middle += b2i(middle)
	r.cov.tail += b2i(tail)
	if head && middle && tail && len(kept) > 0 {
		r.cov.spread++
	}
	r.flows = kept
	r.fill()
}

func (r *refChannel) advanceTo(t units.Time) {
	for t > r.now {
		if len(r.flows) == 0 {
			r.now = t
			return
		}
		step := units.Time(r.next())
		target := r.now + step
		if target > t {
			r.progress(t - r.now)
			r.now = t
			return
		}
		r.progress(step)
		if target <= r.now {
			r.forceDrainNearest()
		}
		r.now = target
		r.reap()
	}
}

func (r *refChannel) advanceToNextCompletion() {
	step := units.Time(r.next())
	if r.now+step > r.now {
		r.advanceTo(r.now + step)
		return
	}
	r.progress(step)
	r.forceDrainNearest()
	r.reap()
}

// drain runs every flow to completion and returns the later of t and the
// last completion among the flows in flight after advancing to t.
func (r *refChannel) drain(t units.Time) units.Time {
	r.advanceTo(t)
	end := t
	for len(r.flows) > 0 {
		inFlight := slices.Clone(r.flows)
		r.advanceToNextCompletion()
		for _, f := range inFlight {
			if f.done && f.doneAt > end {
				end = f.doneAt
			}
		}
	}
	r.cov.drains++
	return end
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
	extra     units.Time
	staggered bool
}

// fillRun is a decoded channel's schedule. A late run starts its flows at
// lateClock, where the clock cannot resolve many completion deltas, so
// completions take the forced-drain route. A drained run ends with one
// Drain instead of one completion at a time.
type fillRun struct {
	starts      []fillStart
	late, drain bool
}

// lateClock is 2^44 s: its float64 resolution, about 3.9 ms, is coarser
// than the gaps between many of a decoded run's completions.
const lateClock = units.Time(1 << 44)

// decodeChannel builds a channel and its flows from data: a capacity byte,
// a layout byte (1–4 groups, which of them are shared, and whether the run
// is late, drained or neither), one rate byte per group, then two bytes per
// flow, at most 64 flows: its group, priority class (0–3), whether it is
// staggered (one value in four) and its extra latency (0–3 ms), and its
// size. Missing bytes read as zero.
func decodeChannel(data []byte) (*Channel, fillRun) {
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
	run := fillRun{late: layout>>6 == 3, drain: layout>>6 == 2}
	for len(data) > 0 && len(run.starts) < 64 {
		gp, size := next(), next()
		run.starts = append(run.starts, fillStart{
			group:     groups[gp%len(groups)],
			pri:       gp / 4 % 4,
			size:      units.Bytes(1+size) * 4 * units.MB,
			extra:     units.Time(gp>>6) * 1e-3,
			staggered: gp>>4&3 == 3,
		})
	}
	return ch, run
}

// randomFillInput draws a decodeChannel input: a share of flows outside
// priority class 0, and in one trial in three a bulk class of 13–40
// members, past sort.Sort's insertion-sort cutoff. One trial in four is
// instead an odd run of flows that alternate between two group-and-class
// bytes, none staggered, the first byte's flows all of one size: they sit
// at the head, in the middle and at the tail of the flow list and land in
// one step.
func randomFillInput(rng *rand.Rand) []byte {
	data := []byte{byte(40 + rng.Intn(216)), byte(rng.Intn(256))}
	for i := 0; i <= int(data[1])%4; i++ {
		data = append(data, byte(rng.Intn(256)))
	}
	if rng.Intn(4) == 0 {
		gp := [2]byte{byte(rng.Intn(256)) &^ 32, byte(rng.Intn(256)) &^ 32}
		size := byte(rng.Intn(64))
		for i, n := 0, 5+2*rng.Intn(9); i < n; i++ {
			if i%2 == 0 {
				data = append(data, gp[0], size)
			} else {
				data = append(data, gp[1], byte(rng.Intn(256)))
			}
		}
		return data
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

// fillCoverage counts the states a fill check walked through:
//   - groups with more than one priority class, classes of more than 12
//     members, and groups with a lower class whose share ran out above it
//     (spent) or reached it (leftover);
//   - fills of one group and one class (uniform, by [shared][capacity is
//     the limit]) and of any other flow set (general);
//   - completion sweeps that dropped the head, a middle or the tail flow,
//     and those that dropped all three and kept another (spread);
//   - forced drains of a sub-resolution completion, and whole-run Drains.
type fillCoverage struct {
	multiClass, bigClass, spent, leftover int
	uniform                               [2][2]int
	general                               int
	head, middle, tail, spread            int
	forced, drains                        int
}

func (c fillCoverage) complete() bool {
	return c.multiClass > 0 && c.bigClass > 0 && c.spent > 0 && c.leftover > 0 &&
		c.uniform[0][0] > 0 && c.uniform[0][1] > 0 && c.uniform[1][0] > 0 && c.uniform[1][1] > 0 &&
		c.general > 0 && c.head > 0 && c.middle > 0 && c.tail > 0 && c.spread > 0 &&
		c.forced > 0 && c.drains > 0
}

// checkFill decodes a channel from data and runs it in lockstep with the
// reference channel: every start, partial advance, completion and Drain on
// both. After each it compares, by their bits, the flow list and every
// flow's rate and remaining bytes, every completed flow's doneAt, the
// clock, PeakRate, TotalBytes and BusyTime, and the channel's cached
// next-completion delta with a fresh scan of the reference.
func checkFill(tb testing.TB, data []byte, cov *fillCoverage) {
	tb.Helper()
	ch, run := decodeChannel(data)
	ref := newRefChannel(ch, cov)
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	check := func(event string, n int) {
		tb.Helper()
		if len(ch.flows) != len(ref.flows) {
			tb.Fatalf("%s %d: %d flows in flight, reference %d", event, n, len(ch.flows), len(ref.flows))
		}
		top := map[int]int{}
		class := map[[2]int]int{}
		for i, rf := range ref.flows {
			f := ch.flows[i]
			if f != rf.f {
				tb.Fatalf("%s %d: flow %d is not the reference's", event, n, i)
			}
			if !same(float64(f.rate), rf.rate) || !same(f.remaining, rf.remaining) {
				tb.Fatalf("%s %d, flow %d (group %d, class %d): rate %v with %v bytes left, reference %v with %v",
					event, n, i, f.group, f.pri, float64(f.rate), f.remaining, rf.rate, rf.remaining)
			}
			if p, ok := top[f.group]; !ok || f.pri > p {
				top[f.group] = f.pri
			}
			class[[2]int{f.group, f.pri}]++
		}
		for i, rf := range ref.all {
			if rf.f.done != rf.done || rf.done && !same(float64(rf.f.doneAt), float64(rf.doneAt)) {
				tb.Fatalf("%s %d, flow %d: done %v at %v, reference %v at %v", event, n, i, rf.f.done, rf.f.doneAt, rf.done, rf.doneAt)
			}
		}
		for _, v := range []struct {
			name      string
			got, want float64
		}{
			{"clock", float64(ch.now), float64(ref.now)},
			{"peak rate", float64(ch.stats.PeakRate), ref.peak},
			{"bytes moved", ch.stats.TotalBytes, ref.total},
			{"busy time", float64(ch.stats.BusyTime), float64(ref.busy)},
		} {
			if !same(v.got, v.want) {
				tb.Fatalf("%s %d: %s %v, reference %v", event, n, v.name, v.got, v.want)
			}
		}
		if ch.nextOK && len(ch.flows) > 0 && !same(float64(ch.next), ref.next()) {
			tb.Fatalf("%s %d: cached next completion in %v, reference %v", event, n, ch.next, ref.next())
		}
		spent, leftover := map[int]bool{}, map[int]bool{}
		for _, f := range ref.flows {
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
			cov.spent += b2i(spent[g])
			cov.leftover += b2i(leftover[g])
		}
	}
	if run.late {
		ch.AdvanceTo(lateClock)
		ref.advanceTo(lateClock)
	}
	for i, s := range run.starts {
		at := ch.now
		if s.staggered && len(ch.flows) > 0 {
			at += units.Time(ref.next() / 2)
			ch.AdvanceTo(at)
			ref.advanceTo(at)
			check("advance before start", i)
		}
		f := ch.Start(at, s.group, s.size, s.extra, s.pri)
		ref.start(at, f, s)
		check("start", i)
	}
	if run.drain && len(ch.flows) > 0 {
		// Drain from past the next completion: a flow that lands on the
		// way to at, whose extra latency may run past at, is not one
		// Drain waits for.
		at := ch.now + units.Time(ref.next()*3/2)
		if got, want := ch.Drain(at), ref.drain(at); !same(float64(got), float64(want)) {
			tb.Fatalf("Drain returned %v, reference %v", got, want)
		}
		check("drain", 0)
		return
	}
	for step := 0; len(ch.flows) > 0; step++ {
		ch.advanceToNextCompletion()
		ref.advanceToNextCompletion()
		check("completion", step)
	}
}

// TestFillMatchesReference drives seeded random flow sets, with shared and
// unshared groups, 1–4 priority classes, staggered starts, late clocks and
// whole-run Drains, through the channel and the reference channel in
// lockstep, and checks every state against the reference.
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

// FuzzChannelFill decodes a flow set from its input and checks every state
// against the reference channel. Its seed corpus must reach every coverage
// count.
func FuzzChannelFill(f *testing.F) {
	rng := rand.New(rand.NewSource(20))
	var cov fillCoverage
	for i := 0; i < 12; i++ {
		seed := randomFillInput(rng)
		checkFill(f, seed, &cov)
		f.Add(seed)
	}
	f.Logf("seed corpus coverage %+v", cov)
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

// TestVisitsCountsPasses pins the visit counter exactly on a one-group,
// one-class flow set: a fill is two passes over the flows (count, then
// fill) and a completion step one (move and reap), while a cached
// next-completion delta costs none.
func TestVisitsCountsPasses(t *testing.T) {
	const n = 10
	ch := NewChannel("burst", units.GBps(100))
	burst := ch.Group(units.GBps(100), false)
	var last *Flow
	for i := 0; i < n; i++ {
		last = ch.Start(0, burst, gb(1), 0, 0)
	}
	if got, want := ch.Stats().Visits, n*(n+1); got != want {
		t.Fatalf("%d same-instant starts: %d visits, want 2·(1+…+%d) = %d", n, got, n, want)
	}
	ch.Wait(0, last) // all n complete in one step, leaving the channel empty
	if got, want := ch.Stats().Visits, n*(n+1)+n; got != want {
		t.Fatalf("then one completion step: %d visits, want %d", got, want)
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
