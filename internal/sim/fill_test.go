package sim

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"github.com/memcentric/mcdla/internal/units"
)

// refFlow is a flow of the reference channel: the channel's flow it
// shadows, and its own copy of the state the channel keeps.
type refFlow struct {
	f          Flow
	group, pri int
	remaining  float64
	rate       float64
	extra      units.Time
	done       bool
	doneAt     units.Time
}

// refChannel is the oracle the channel's fill and event step are checked
// against. Its fill is the sorted two-level water-fill, flow by flow: the
// top-level fill across groups, then in each group a stable sort by
// descending priority and an ascending-cap fill per class, each class
// taking what the classes above it left, with referenceFill at both
// levels. It keeps a remaining byte count per flow and divides each class's
// share serially, where the channel keeps one rate and one virtual clock
// per class. Its event step moves every flow, then a separate sweep stamps
// and drops the drained ones. It tallies what it walks through in cov.
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

func (r *refChannel) start(t units.Time, f Flow, s fillStart) {
	r.advanceTo(t)
	rf := &refFlow{f: f, group: s.group.id, pri: s.pri, remaining: float64(s.size), extra: s.extra}
	r.all = append(r.all, rf)
	if s.size == 0 {
		// A zero-size flow completes at once, stamped from the clock, and
		// never enters the flow list.
		rf.done, rf.doneAt = true, r.now+s.extra
		return
	}
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
		if !r.drained(f) {
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

// drained reports whether the reap takes f: whether at most byteEpsilon
// bytes are left, except within rounding of byteEpsilon. There the
// channel's served count and the reference's own count can fall on either
// side (flows whose exact remainders differ by byteEpsilon, as repeated
// staggered starts leave, complete one step apart or together), so the
// reference takes f exactly when the channel completed it at this instant.
// The band is lockstepTol of the bytes moved so far, the scale of the
// served count's rounding.
func (r *refChannel) drained(f *refFlow) bool {
	if math.Abs(f.remaining-byteEpsilon) > lockstepTol*r.total {
		return f.remaining <= byteEpsilon
	}
	return f.f.Done() && near(float64(f.f.DoneAt()), float64(r.now+f.extra))
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

// decodeChannel builds a channel with newChannel and its flows from data:
// a capacity byte, a layout byte (1–4 groups, which of them are shared, and
// whether the run is late, drained or neither), one rate byte per group,
// then two bytes per flow, at most 64 flows: its group, priority class
// (0–3), whether it is staggered (one value in four) and its extra latency
// (0–3 ms), and its size. Missing bytes read as zero.
func decodeChannel(data []byte, newChannel func(string, units.Bandwidth) *Channel) (*Channel, fillRun) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	ch := newChannel("fill", units.GBps(float64(10+next())))
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

// lockstepTol is the relative tolerance checkLockstep holds the channel
// to. The channel gives each class one rate where the reference divides
// serially, and keeps one served count per class where the reference keeps
// a byte count per flow, so the two agree to rounding, not to the bit.
const lockstepTol = 1e-12

// near reports whether a and b agree to lockstepTol, relative to the
// larger of the two.
func near(a, b float64) bool {
	return a == b || math.Abs(a-b) <= lockstepTol*max(math.Abs(a), math.Abs(b))
}

// same reports whether a and b have the same bits.
func same(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// liveFlow is a flow in flight as checkLockstep sees it.
type liveFlow struct {
	id         int32
	group, pri int
	remaining  float64
	rate       units.Bandwidth
}

// flowsInFlight lists the flows in every class heap of ch in stamp order.
// Each has tag − served bytes left and moves at its class's rate, or at 0
// in a class parked below where its group's share ran out.
func flowsInFlight(ch *Channel) []liveFlow {
	var fs []liveFlow
	for gi := range ch.groups {
		g := &ch.groups[gi]
		for k := range g.classes {
			cl := &g.classes[k]
			rate := units.Bandwidth(0)
			if k < g.moving {
				rate = cl.rate
			}
			for _, f := range cl.flows {
				fs = append(fs, liveFlow{id: f.id, group: gi, pri: cl.pri, remaining: max(f.tag-cl.served, 0), rate: rate})
			}
		}
	}
	slices.SortFunc(fs, func(a, b liveFlow) int { return cmp.Compare(a.id, b.id) })
	return fs
}

// checkLockstep compares a channel with the reference channel after an
// event: the flows in flight against the reference's flow list (each
// flow's stamp, group and class exactly, its rate to lockstepTol), every
// started flow's completion (whether done exactly, when to lockstepTol),
// and to lockstepTol the clock, PeakRate, TotalBytes, BusyTime and the
// time of the channel's cached next completion against a fresh scan of the
// reference. It tallies the classes in flight in the reference's coverage.
func checkLockstep(tb testing.TB, ch *Channel, ref *refChannel, event string, n int) {
	tb.Helper()
	flows := flowsInFlight(ch)
	if len(flows) != len(ref.flows) {
		tb.Fatalf("%s %d: %d flows in flight, reference %d", event, n, len(flows), len(ref.flows))
	}
	top := map[int]int{}
	class := map[[2]int]int{}
	for i, rf := range ref.flows {
		f := flows[i]
		if int(f.id) != rf.f.id || f.group != rf.group || f.pri != rf.pri {
			tb.Fatalf("%s %d: flow %d is not the reference's", event, n, i)
		}
		if !near(float64(f.rate), rf.rate) {
			tb.Fatalf("%s %d, flow %d (group %d, class %d): rate %v, reference %v",
				event, n, i, f.group, f.pri, float64(f.rate), rf.rate)
		}
		if p, ok := top[rf.group]; !ok || rf.pri > p {
			top[rf.group] = rf.pri
		}
		class[[2]int{rf.group, rf.pri}]++
	}
	for i, rf := range ref.all {
		if rf.f.Done() != rf.done || rf.done && !near(float64(rf.f.DoneAt()), float64(rf.doneAt)) {
			tb.Fatalf("%s %d, flow %d: done %v at %v, reference %v at %v", event, n, i, rf.f.Done(), rf.f.DoneAt(), rf.done, rf.doneAt)
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
		if !near(v.got, v.want) {
			tb.Fatalf("%s %d: %s %v, reference %v", event, n, v.name, v.got, v.want)
		}
	}
	if ch.nextOK && len(flows) > 0 && !near(float64(ch.now+ch.next), float64(ref.now)+ref.next()) {
		tb.Fatalf("%s %d: cached next completion at %v, reference %v", event, n, ch.now+ch.next, float64(ref.now)+ref.next())
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
			ref.cov.bigClass++
		}
		if k[1] < top[k[0]] {
			ref.cov.multiClass++
		}
	}
	for g := range top {
		ref.cov.spent += b2i(spent[g])
		ref.cov.leftover += b2i(leftover[g])
	}
}

// checkFill decodes a channel from data and runs it in lockstep with the
// reference channel: every start, partial advance, completion and Drain on
// both, each followed by checkLockstep.
func checkFill(tb testing.TB, data []byte, cov *fillCoverage) {
	tb.Helper()
	ch, run := decodeChannel(data, NewChannel)
	ref := newRefChannel(ch, cov)
	check := func(event string, n int) {
		tb.Helper()
		checkLockstep(tb, ch, ref, event, n)
	}
	if run.late {
		ch.AdvanceTo(lateClock)
		ref.advanceTo(lateClock)
	}
	for i, s := range run.starts {
		at := ch.now
		if s.staggered && len(flowsInFlight(ch)) > 0 {
			at += units.Time(ref.next() / 2)
			ch.AdvanceTo(at)
			ref.advanceTo(at)
			check("advance before start", i)
		}
		f := ch.Start(at, s.group, s.size, s.extra, s.pri)
		ref.start(at, f, s)
		check("start", i)
	}
	if run.drain && len(flowsInFlight(ch)) > 0 {
		// Drain from past the next completion: a flow that lands on the
		// way to at, whose extra latency may run past at, is not one
		// Drain waits for.
		at := ch.now + units.Time(ref.next()*3/2)
		if got, want := ch.Drain(at), ref.drain(at); !near(float64(got), float64(want)) {
			tb.Fatalf("Drain returned %v, reference %v", got, want)
		}
		check("drain", 0)
		return
	}
	for step := 0; len(flowsInFlight(ch)) > 0; step++ {
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

// TestFillClassTransitions drives a channel in lockstep with the
// reference channel through classes arriving and leaving. Two flows of the
// first group's class 0 start it, with a zero-size start of another class
// between them; the channel runs part way, and a flow of another group
// joins them. The first group's class drains while the other stays in
// flight, so one class is left. A same-instant start joins that class, and
// a higher class in its group takes the group's share until it completes.
// The channel drains empty; a new class then starts it around another
// zero-size start.
func TestFillClassTransitions(t *testing.T) {
	ch := NewChannel("host", units.GBps(100))
	a := ch.Group(units.GBps(40), false)
	b := ch.Group(units.GBps(30), true)
	ref := newRefChannel(ch, &fillCoverage{})
	step := 0
	start := func(at units.Time, s fillStart) Flow {
		t.Helper()
		f := ch.Start(at, s.group, s.size, s.extra, s.pri)
		ref.start(at, f, s)
		checkLockstep(t, ch, ref, "start", step)
		step++
		return f
	}
	complete := func() {
		t.Helper()
		ch.advanceToNextCompletion()
		ref.advanceToNextCompletion()
		checkLockstep(t, ch, ref, "completion", step)
		step++
	}
	classes := func(want ...[2]int) {
		t.Helper()
		var got [][2]int
		for gi := range ch.groups {
			for _, cl := range ch.groups[gi].classes {
				got = append(got, [2]int{gi, cl.pri})
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: active (group, class) pairs %v, want %v", step, got, want)
		}
	}

	start(0, fillStart{group: a, size: gb(1)})
	start(0, fillStart{group: b, pri: 1, extra: 1e-3})
	last := start(0, fillStart{group: a, size: gb(2)})
	classes([2]int{a.id, 0})
	at := ch.now + units.Time(ref.next()/2)
	ch.AdvanceTo(at)
	ref.advanceTo(at)
	checkLockstep(t, ch, ref, "advance", step)
	start(at, fillStart{group: b, size: gb(3)})
	classes([2]int{a.id, 0}, [2]int{b.id, 0})
	for !last.Done() {
		complete()
	}
	classes([2]int{b.id, 0})
	start(ch.now, fillStart{group: b, size: gb(1)})
	start(ch.now, fillStart{group: b, pri: 2, size: gb(0.5)})
	classes([2]int{b.id, 2}, [2]int{b.id, 0})
	complete()
	classes([2]int{b.id, 0})
	for len(flowsInFlight(ch)) > 0 {
		complete()
	}
	classes()

	start(ch.now+1, fillStart{group: a, pri: 3, size: gb(1)})
	start(ch.now, fillStart{group: a, extra: 2e-3})
	start(ch.now, fillStart{group: a, pri: 3, size: gb(2)})
	classes([2]int{a.id, 3})
	for len(flowsInFlight(ch)) > 0 {
		complete()
	}
}

// fillSeeds returns the seeds FuzzChannelFill adds to its corpus.
func fillSeeds() [][]byte {
	rng := rand.New(rand.NewSource(20))
	seeds := make([][]byte, 12)
	for i := range seeds {
		seeds[i] = randomFillInput(rng)
	}
	return seeds
}

// FuzzChannelFill decodes a flow set from its input and checks every state
// against the reference channel. Its seed corpus must reach every coverage
// count.
func FuzzChannelFill(f *testing.F) {
	var cov fillCoverage
	for _, seed := range fillSeeds() {
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
// and every completion re-fills the channel once, a class arriving or
// leaving included, and a round over an empty channel is free.
func TestFillsCountsFlowSetChanges(t *testing.T) {
	const n = 10
	ch := NewChannel("burst", units.GBps(100))
	burst := ch.Group(units.GBps(100), false)
	var last Flow
	for i := 0; i < n; i++ {
		last = ch.Start(0, burst, gb(1), 0, 0)
	}
	ch.Wait(0, last) // all n complete together, leaving the channel empty
	if got := ch.Stats().Fills; got != n {
		t.Fatalf("%d same-instant starts then a Wait: %d fills, want %d", n, got, n)
	}
	lone(ch, 0, gb(0.001), units.GBps(100), 0) // another group's class
	before := ch.Stats().Fills
	for i := 0; i < n; i++ {
		ch.Start(0, burst, gb(1), 0, 0)
	}
	ch.Drain(0) // the lone flow completes first, then the burst together
	if got := ch.Stats().Fills - before; got != n+1 {
		t.Fatalf("%d starts beside another group's flow, then a Drain: %d fills, want %d", n, got, n+1)
	}

	ch = NewChannel("handoff", units.GBps(100))
	a := lone(ch, 0, gb(1), units.GBps(100), 0)
	lone(ch, 0, gb(10), units.GBps(100), 0)
	before = ch.Stats().Fills
	end := ch.Wait(0, a)
	lone(ch, end, gb(1), units.GBps(100), 0)
	if got := ch.Stats().Fills - before; got != 2 {
		t.Fatalf("a completion then a same-instant start: %d fills, want 2", got)
	}
}

// TestVisitsCountsPasses pins the visit counter exactly. A start looks up
// its class, one visit unless its group has no class yet, pushes its tag
// and fills, visiting each class the fill walks; a cached next completion
// costs none. So n starts in one class cost 3n − 1. A flow of another
// group costs a push and a fill over both groups' classes. Its completion
// step moves both classes, pops its tag and fills the one class left: four.
// The n flows then complete in one step: one class moved, n pops, and a
// fill of the empty channel, which is free.
func TestVisitsCountsPasses(t *testing.T) {
	const n = 10
	ch := NewChannel("burst", units.GBps(100))
	burst := ch.Group(units.GBps(100), false)
	var last Flow
	for i := 0; i < n; i++ {
		last = ch.Start(0, burst, gb(1), 0, 0)
	}
	if got, want := ch.Stats().Visits, 3*n-1; got != want {
		t.Fatalf("%d same-instant starts: %d visits, want %d", n, got, want)
	}
	other := lone(ch, 0, gb(0.001), units.GBps(100), 0)
	if got, want := ch.Stats().Visits, 3*n+2; got != want {
		t.Fatalf("then a start in another group: %d visits, want %d", got, want)
	}
	ch.Wait(0, other)
	if got, want := ch.Stats().Visits, 3*n+6; got != want {
		t.Fatalf("then its completion: %d visits, want %d", got, want)
	}
	ch.Wait(0, last) // all n complete in one step, leaving the channel empty
	if got, want := ch.Stats().Visits, 4*n+7; got != want {
		t.Fatalf("then one completion step: %d visits, want %d", got, want)
	}
}

// TestParkedClassesAreNotVisited: n pri-0 flows park under a pri-1 class
// of their shared group, which takes the group's whole share. A start and
// a completion in the top class cost the same visits whatever n is, and
// the parked flows keep rate 0.
func TestParkedClassesAreNotVisited(t *testing.T) {
	cost := func(parked int) (start, done int) {
		ch := NewChannel("host", units.GBps(100))
		dma := ch.Group(units.GBps(40), true)
		for i := 0; i < parked; i++ {
			ch.Start(0, dma, gb(1), 0, 0)
		}
		top := ch.Start(0, dma, gb(0.5), 0, 1)
		before := ch.Stats().Visits
		ch.Start(0, dma, gb(1), 0, 1)
		start = ch.Stats().Visits - before
		before = ch.Stats().Visits
		ch.Wait(0, top)
		done = ch.Stats().Visits - before
		for _, f := range flowsInFlight(ch) {
			if f.pri == 0 && f.rate != 0 {
				t.Fatalf("%d parked flows: a pri-0 flow moves at %v", parked, f.rate)
			}
		}
		return start, done
	}
	start10, done10 := cost(10)
	start1000, done1000 := cost(1000)
	if start10 != start1000 || done10 != done1000 {
		t.Fatalf("a top-class start and completion cost %d and %d visits over 10 parked flows, %d and %d over 1000",
			start10, done10, start1000, done1000)
	}
}

// TestPeakRateCountsZeroDurationStates: PeakRate is the largest rounded
// total over every flow set the channel held, including sets that last zero
// simulated time. On a 15 GB/s channel, eleven equal shares of one group
// sum to an ulp above capacity, while one to ten or twelve sum to at most
// capacity, so starting twelve flows at one instant peaks only in the
// passing eleven-flow state. A fill deferred to the next rate read would
// skip that state.
func TestPeakRateCountsZeroDurationStates(t *testing.T) {
	ch := NewChannel("host", units.GBps(15))
	dma := ch.Group(units.GBps(15), false)
	for i := 0; i < 12; i++ {
		ch.Start(0, dma, gb(1), 0, 0)
	}
	ch.Drain(0)
	if peak := ch.Stats().PeakRate; peak <= ch.Capacity() {
		t.Fatalf("peak rate %v, want the eleven-flow state's total just above capacity %v", float64(peak), float64(ch.Capacity()))
	}
}

// TestOneClassVirtualClock checks the virtual clock against closed-form
// finish times. n flows of one group start together, the k-th of k GB, so
// the k-th finishes 1 GB after the (k−1)-th at the rate the n−k+1 flows
// then in flight each get: the lesser of the rate and an equal split of
// the capacity for an unshared group, an equal split of the lesser of the
// two for a shared one. TotalBytes must equal the bytes started, and eight
// concurrent runs must match a serial run bit for bit.
func TestOneClassVirtualClock(t *testing.T) {
	const n = 8
	capacity := units.GBps(100)
	for _, tc := range []struct {
		rate   units.Bandwidth
		shared bool
	}{{units.GBps(30), false}, {units.GBps(60), true}, {units.GBps(150), true}} {
		run := func() ([]units.Time, ChannelStats) {
			ch := NewChannel("host", capacity)
			g := ch.Group(tc.rate, tc.shared)
			var flows []Flow
			for k := 1; k <= n; k++ {
				flows = append(flows, ch.Start(0, g, gb(float64(k)), 0, 0))
			}
			ch.Drain(0)
			var done []units.Time
			for _, f := range flows {
				done = append(done, f.DoneAt())
			}
			return done, ch.Stats()
		}
		done, stats := run()
		var at float64
		for k := 1; k <= n; k++ {
			m := float64(n - k + 1)
			r := min(float64(tc.rate), float64(capacity)/m)
			if tc.shared {
				r = min(float64(tc.rate), float64(capacity)) / m
			}
			at += 1e9 / r
			if !near(float64(done[k-1]), at) {
				t.Errorf("rate %v shared %v: flow %d finished at %v, want %v", tc.rate.GBps(), tc.shared, k, done[k-1], at)
			}
		}
		if want := float64(gb(n * (n + 1) / 2)); !near(stats.TotalBytes, want) {
			t.Errorf("rate %v shared %v: moved %v bytes, want %v", tc.rate.GBps(), tc.shared, stats.TotalBytes, want)
		}
		if !near(float64(stats.BusyTime), at) {
			t.Errorf("rate %v shared %v: busy %v, want %v", tc.rate.GBps(), tc.shared, stats.BusyTime, at)
		}

		var wg sync.WaitGroup
		runs := make([][]units.Time, 8)
		runStats := make([]ChannelStats, 8)
		for i := range runs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				runs[i], runStats[i] = run()
			}()
		}
		wg.Wait()
		for i := range runs {
			for k := range done {
				if !same(float64(runs[i][k]), float64(done[k])) {
					t.Fatalf("concurrent run %d: flow %d finished at %v, serial run at %v", i, k+1, runs[i][k], done[k])
				}
			}
			if runStats[i] != stats {
				t.Fatalf("concurrent run %d: stats %+v, serial run %+v", i, runStats[i], stats)
			}
		}
	}
}
