// Package sim is the discrete-event core of the mcdla simulator.
//
// The paper's in-house simulator (§IV) models all inter-node traffic as
// coarse-grained bulk DMA transfers over fixed-bandwidth channels, with
// computation overlapped against communication. Package sim provides exactly
// that abstraction: a Channel is a shared bandwidth resource carrying
// concurrent Flows under max-min fair sharing. Every Flow belongs to a Group
// declared once on its channel with one rate: each member moves at most that
// rate (e.g. a DMA engine that can only stripe across two of a memory-node's
// six links), and a shared group's members also split it as their total.
// Completions are resolved lazily as simulated time advances, so a single
// sequential actor — one symmetric device of the 8-device node — can drive
// the whole timeline deterministically.
//
// A simulation that is done with a channel hands it back with Release, and
// the next NewChannel reuses its tables: their capacity carries over, their
// contents do not, so a reused channel computes every bit a fresh one does.
package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"github.com/memcentric/mcdla/internal/units"
)

// Flow is a handle on a transfer started on a Channel: a small value that
// stays valid until the channel is released, after the transfer completes
// too.
type Flow struct {
	ch *Channel
	id int // index of the flow's stamp in ch.stamps
}

// Done reports whether the flow has completed.
func (f Flow) Done() bool { return f.ch.done(f.id) }

// DoneAt reports the completion time. It is only meaningful once Done.
func (f Flow) DoneAt() units.Time { return f.ch.stamps[f.id] }

// flow is an in-flight transfer's entry in its channel's flow table. Its
// indices are 32-bit: a channel declares fewer than 2³¹ groups and starts
// fewer than 2³¹ flows, whose stamps alone would take 16 GiB.
type flow struct {
	// remaining is the bytes left to move, or on the virtual clock the
	// flow's finish tag: the clock's served bytes at its start plus its
	// size.
	remaining float64
	rate      units.Bandwidth // current allocated rate, off the virtual clock
	pri       int             // priority class within the group (higher first)
	group     int32           // index of the flow's group in ch.groups
	id        int32           // index of the flow's stamp in ch.stamps
}

// Group is a handle on one of a channel's flow groups: its members move at
// most the group's rate each, and a shared group also caps their total at
// that rate. The zero Group belongs to no channel.
type Group struct {
	ch *Channel
	id int
}

// Channel reports the channel the group was declared on.
func (g Group) Channel() *Channel { return g.ch }

// Rate reports the group's per-member rate.
func (g Group) Rate() units.Bandwidth { return g.ch.groups[g.id].rate }

// group is one declared group and its working state in the current
// allocate round.
type group struct {
	rate   units.Bandwidth
	shared bool

	n     int     // active members
	sum   float64 // n copies of rate, added in flow order
	unit  int     // index among the round's active groups
	pri   int     // highest active priority class
	left  int     // members of the class being filled not yet filled
	rem   float64 // group share not yet handed out
	lower bool    // some member sits below the top class
}

// before orders the virtual clock's heap: earlier finish tags first, ties
// by start order.
func (f *flow) before(g *flow) bool {
	return f.remaining < g.remaining || f.remaining == g.remaining && f.id < g.id
}

// Channel is a shared, half-duplex bandwidth resource. Concurrent flows
// receive max-min fair shares of Capacity through their groups: groups
// share the channel, and each group's share goes to its members, each
// moving at most the group's rate. The zero Channel is not usable;
// construct with NewChannel.
type Channel struct {
	name     string
	capacity units.Bandwidth
	now      units.Time
	// flows holds the flows in flight: in start order on the general
	// route, a min-heap of finish tags on the virtual clock.
	flows  []flow
	groups []group
	// stamps holds one entry per flow started, indexed by Flow.id. Its
	// sign bit says whether the flow is in flight: an in-flight flow's
	// stamp is its extra latency negated (−0 for none), a completed flow's
	// is its completion time, which the clock and a non-negative extra
	// latency keep non-negative.
	stamps []units.Time

	// homeN counts the in-flight flows in group homeGroup's priority class
	// homePri, the home class: the class of the flow that started the
	// channel from empty, or the class a general fill last found alone in
	// flight. While homeN is every flow in flight, the virtual clock
	// carries them.
	homeGroup, homePri, homeN int

	// The virtual clock: while every flow in flight sits in the home
	// class, all of them move at one rate, so served, the bytes each has
	// moved since the clock was set, stands for every flow's progress.
	// While clock is set the flow table is a min-heap of finish tags, so a
	// flow has tag − served bytes left, and rate is the flows' one rate.
	clock  bool
	served float64
	rate   units.Bandwidth

	stats ChannelStats

	// next caches nextCompletionDelta while nextOK: allocate sets it, and
	// whatever moves bytes without a re-fill clears nextOK.
	next   units.Time
	nextOK bool

	// topFill keeps the general fill's working storage off the heap: every
	// flow start and completion reruns the water-fill.
	topFill fillScratch

	// latest is the latest completion time stamped since Drain set it.
	latest units.Time
}

// stampBlock is the stamp table's first size. The table doubles when full,
// so a channel pays at most one allocation per stampBlock flow starts.
const stampBlock = 64

// newStamp adds the stamp of a flow being started in flight and returns
// its index.
func (c *Channel) newStamp(extra units.Time) int {
	if len(c.stamps) == cap(c.stamps) {
		grown := make([]units.Time, len(c.stamps), max(stampBlock, 2*cap(c.stamps)))
		copy(grown, c.stamps)
		c.stamps = grown
	}
	c.stamps = append(c.stamps, -extra)
	return len(c.stamps) - 1
}

// done reports whether the flow with stamp index id has completed.
func (c *Channel) done(id int) bool { return !math.Signbit(float64(c.stamps[id])) }

// Group declares a flow group whose members each move at most rate. A
// shared group's members also share rate as their total — e.g. a DMA engine
// whose link group tops out below the channel's full link complex
// (MC-DLA(S)'s two memory-node links on six shared links).
func (c *Channel) Group(rate units.Bandwidth, shared bool) Group {
	if rate <= 0 {
		panic(fmt.Sprintf("sim: channel %q: group rate must be positive, got %v", c.name, rate))
	}
	c.groups = append(c.groups, group{rate: rate, shared: shared})
	return Group{ch: c, id: len(c.groups) - 1}
}

// ChannelStats accumulates a channel's traffic accounting: the bytes moved,
// the time the channel was busy (the plane's switch and uplink occupancy)
// and the peak aggregate rate (Figure 12's peak CPU memory bandwidth).
type ChannelStats struct {
	TotalBytes float64
	// BusyTime integrates wall time during which at least one flow was active.
	BusyTime units.Time
	// PeakRate is the maximum instantaneous aggregate rate observed.
	PeakRate units.Bandwidth
	// Fills counts water-fill rounds over a nonempty flow set: an exact,
	// machine-independent measure of the event loop's work.
	Fills int
	// Visits counts the flow entries the event loop touches: one per
	// push onto or pop off the virtual clock's heap, and one per flow in
	// flight for every pass the general route makes over them, moving the
	// flows onto or off the clock among them. It measures what each event
	// costs, as Fills measures how many events there are.
	Visits int
}

// channelPool holds released channels for NewChannel to reuse.
var channelPool = sync.Pool{New: func() any { return new(Channel) }}

// NewChannel creates a channel with the given aggregate capacity. It may
// reuse a released channel: then every counter, clock, cache and statistic
// is zero as on a fresh channel, and every table is empty but keeps the
// capacity an earlier simulation grew.
func NewChannel(name string, capacity units.Bandwidth) *Channel {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: channel %q capacity must be positive, got %v", name, capacity))
	}
	c := channelPool.Get().(*Channel)
	c.name, c.capacity = name, capacity
	return c
}

// Release hands the channel's stamp, flow, group and fill tables back for
// a later NewChannel to reuse. Neither the channel nor any Flow or Group
// on it may be used afterwards. A channel that is never released is
// garbage collected as usual.
func (c *Channel) Release() {
	*c = Channel{
		flows:  c.flows[:0],
		groups: c.groups[:0],
		stamps: c.stamps[:0],
		topFill: fillScratch{
			caps:  c.topFill.caps[:0],
			out:   c.topFill.out[:0],
			order: c.topFill.order[:0],
		},
	}
	channelPool.Put(c)
}

// Name reports the channel's name.
func (c *Channel) Name() string { return c.name }

// Capacity reports the channel's aggregate capacity.
func (c *Channel) Capacity() units.Bandwidth { return c.capacity }

// Stats returns a copy of the accumulated statistics.
func (c *Channel) Stats() ChannelStats { return c.stats }

// allocate recomputes max-min fair rates for the active flows using
// two-level water-filling. The active groups, in order of their first
// member, share the channel capacity max-min fairly, each demanding its
// rate if shared and n·rate if not. Each group's share then goes to its
// members by descending priority class. Members share one rate, so a
// class's max-min fill is one pass in flow order: the ascending-cap order
// of a general fill is the identity on equal caps. It runs on every flow
// start and completion, so its working storage lives in the channel.
//
// While every flow in flight sits in the home class, the common case, the
// virtual clock carries them and the fill is fillClock's O(1) rate. Any
// other set takes the general route: a counting pass, then one pass over
// the flows that fills every group's top class, sums the total in flow
// order and finds the next completion. Only a group whose top class left
// part of its share unspent cascades to its lower classes, and only then
// are the total and the next completion re-summed: a lower-class flow the
// cascade does not reach keeps rate +0, which adds nothing to either. A
// counting pass that finds one class makes it the home class and moves
// the flows onto the clock.
//
// Deferring a round to the next rate read would skip only states that last
// zero simulated time, yet it would change PeakRate: the peak is the largest
// rounded total, and a zero-duration state's total can exceed those of the
// states around it by an ulp (TestPeakRateCountsZeroDurationStates).
func (c *Channel) allocate() {
	c.nextOK = false
	if len(c.flows) == 0 {
		return
	}
	c.stats.Fills++
	if c.homeN == len(c.flows) {
		c.enterClock()
		c.fillClock()
		return
	}
	c.stats.Visits += len(c.flows)
	for i := range c.groups {
		c.groups[i].n = 0
	}
	caps := c.topFill.caps[:0]
	for i := range c.flows {
		f := &c.flows[i]
		g := &c.groups[f.group]
		if g.n == 0 {
			*g = group{rate: g.rate, shared: g.shared, unit: len(caps), pri: f.pri}
			caps = append(caps, 0)
		}
		g.n++
		g.sum += float64(g.rate)
		switch {
		case f.pri == g.pri:
			g.left++
		case f.pri > g.pri:
			g.pri, g.left, g.lower = f.pri, 1, true
		default:
			g.lower = true
		}
	}
	c.topFill.caps = caps
	if id := int(c.flows[0].group); len(caps) == 1 && !c.groups[id].lower {
		c.homeGroup, c.homePri, c.homeN = id, c.groups[id].pri, len(c.flows)
		c.enterClock()
		c.fillClock()
		return
	}
	for i := range c.groups {
		if g := &c.groups[i]; g.n > 0 {
			caps[g.unit] = g.sum
			if g.shared {
				caps[g.unit] = float64(g.rate)
			}
		}
	}
	shares := c.topFill.fill(float64(c.capacity))
	for i := range c.groups {
		if g := &c.groups[i]; g.n > 0 {
			g.rem = shares[g.unit]
		}
	}
	c.stats.Visits += len(c.flows)
	total, next := units.Bandwidth(0), math.Inf(1)
	for i := range c.flows {
		f := &c.flows[i]
		g := &c.groups[f.group]
		f.rate = 0
		if f.pri == g.pri {
			f.rate = g.take()
			total += f.rate
			next = min(next, f.completesIn())
		}
	}
	fed := false
	for i := range c.groups {
		// A class's last member takes all that is left unless every member
		// took the full rate, so rem is exactly 0 once the share is spent.
		if g := &c.groups[i]; g.n > 0 && g.lower && g.rem > 0 {
			c.cascade(i)
			fed = true
		}
	}
	if fed {
		c.stats.Visits += len(c.flows)
		total, next = 0, math.Inf(1)
		for i := range c.flows {
			f := &c.flows[i]
			total += f.rate
			next = min(next, f.completesIn())
		}
	}
	c.settle(total, next)
}

// fillClock sets the one rate of the home class's members, all of them on
// the virtual clock: n members of an unshared group each move at the
// group's rate while their n-fold demand fits the capacity and share it
// equally otherwise, and a shared group's members split the lesser of its
// rate and the capacity equally. The next completion is the heap minimum's.
func (c *Channel) fillClock() {
	g := &c.groups[c.homeGroup]
	n, capacity, rate := float64(len(c.flows)), float64(c.capacity), float64(g.rate)
	split := capacity
	if g.shared {
		split = min(rate, capacity)
	}
	r := split / n //mcdlalint:allow floatguard -- fillClock runs only with flows on the clock, so n >= 1
	if !g.shared && n*rate <= capacity {
		r = rate
	}
	c.rate = units.Bandwidth(r)
	c.settle(units.Bandwidth(n*r), c.clockNext())
}

// clockNext reports the time until the heap minimum completes at the
// clock's rate, with completesIn's residue rule.
func (c *Channel) clockNext() float64 {
	return max(c.flows[0].remaining-c.served, byteEpsilon) / float64(c.rate) //mcdlalint:allow floatguard -- fillClock sets a positive rate: a positive capacity or group rate over n >= 1
}

// enterClock puts the flow table, every flow in the home class, on the
// virtual clock. served restarts at 0, so each flow's tag is its remaining
// bytes, and the table is heapified in place.
func (c *Channel) enterClock() {
	if c.clock {
		return
	}
	c.stats.Visits += len(c.flows)
	c.clock, c.served = true, 0
	for i := len(c.flows)/2 - 1; i >= 0; i-- {
		c.down(i)
	}
}

// leaveClock takes the flows off the virtual clock, for a flow outside the
// home class to join them on the general route: the heap is sorted back
// into start order in place, each tag becoming what it has left to move.
func (c *Channel) leaveClock() {
	if !c.clock {
		return
	}
	c.clock = false
	c.stats.Visits += len(c.flows)
	slices.SortFunc(c.flows, func(a, b flow) int { return cmp.Compare(a.id, b.id) })
	for i := range c.flows {
		c.flows[i].remaining = max(c.flows[i].remaining-c.served, 0)
	}
}

// push adds a flow to the heap.
func (c *Channel) push(f flow) {
	c.stats.Visits++
	c.flows = append(c.flows, f)
	for i := len(c.flows) - 1; i > 0; {
		up := (i - 1) / 2
		if !c.flows[i].before(&c.flows[up]) {
			break
		}
		c.flows[i], c.flows[up] = c.flows[up], c.flows[i]
		i = up
	}
}

// pop removes the heap minimum and returns its stamp index.
func (c *Channel) pop() int32 {
	c.stats.Visits++
	id, last := c.flows[0].id, len(c.flows)-1
	c.flows[0] = c.flows[last]
	c.flows = c.flows[:last]
	c.down(0)
	return id
}

// down sifts heap entry i down to its place.
func (c *Channel) down(i int) {
	for {
		least := i
		for _, k := range [2]int{2*i + 1, 2*i + 2} {
			if k < len(c.flows) && c.flows[k].before(&c.flows[least]) {
				least = k
			}
		}
		if least == i {
			return
		}
		c.flows[i], c.flows[least] = c.flows[least], c.flows[i]
		i = least
	}
}

// serve moves the virtual clock's flows dt forward at their one rate:
// served grows by the bytes one flow moves, and TotalBytes by what all of
// them move, a flow with fewer bytes left than that moving only those.
func (c *Channel) serve(dt units.Time) {
	moved := float64(c.rate) * float64(dt)
	n, left := c.short(0, moved)
	if kept := len(c.flows) - n; kept > 0 {
		left += float64(kept) * moved
	}
	c.stats.TotalBytes += left
	c.served += moved
}

// short counts the heap entries at or below i with fewer than moved bytes
// left and sums the bytes they have left. No entry has more left than the
// entries below it, so the walk stops at the first with moved or more:
// usually the root, or the flows about to complete.
func (c *Channel) short(i int, moved float64) (n int, left float64) {
	if i >= len(c.flows) {
		return 0, 0
	}
	own := c.flows[i].remaining - c.served
	if own >= moved {
		return 0, 0
	}
	n1, left1 := c.short(2*i+1, moved)
	n2, left2 := c.short(2*i+2, moved)
	return 1 + n1 + n2, max(own, 0) + left1 + left2
}

// settle caches a fill's next-completion delta and folds its total into
// PeakRate.
func (c *Channel) settle(total units.Bandwidth, next float64) {
	c.next, c.nextOK = units.Time(next), true
	if total > c.stats.PeakRate {
		c.stats.PeakRate = total
	}
}

// take hands the next member of the class being filled its max-min share.
// The rate is positive and the share non-negative, both finite, so the
// inline compare returns math.Min's bits.
func (g *group) take() units.Bandwidth {
	share := g.rem / float64(g.left) //mcdlalint:allow floatguard -- left counts down from the class's member count, one per member, so left >= 1 here
	r := float64(g.rate)
	if share < r {
		r = share
	}
	g.rem -= r
	g.left--
	return units.Bandwidth(r)
}

// cascade hands what group id's top class left over to its lower classes,
// one class at a time in descending priority, until the share is spent:
// each member takes at most rem, so rem never goes negative, and the
// classes below a spent share keep rate +0.
func (c *Channel) cascade(id int) {
	g := &c.groups[id]
	for above := g.pri; g.rem > 0; above = g.pri {
		c.stats.Visits += len(c.flows)
		g.left = 0
		for i := range c.flows {
			f := &c.flows[i]
			if int(f.group) != id || f.pri >= above {
				continue
			}
			if g.left == 0 || f.pri > g.pri {
				g.pri, g.left = f.pri, 0
			}
			if f.pri == g.pri {
				g.left++
			}
		}
		if g.left == 0 {
			return
		}
		c.stats.Visits += len(c.flows)
		for i := range c.flows {
			if f := &c.flows[i]; int(f.group) == id && f.pri == g.pri {
				f.rate = g.take()
			}
		}
	}
}

// fillScratch is the top-level water-fill's working set: callers load
// caps, fill computes shares in place. It is also the sort.Sort interface
// ordering indices by ascending cap.
type fillScratch struct {
	caps  []float64
	out   []float64
	order []int
}

func (fs *fillScratch) Len() int           { return len(fs.order) }
func (fs *fillScratch) Less(a, b int) bool { return fs.caps[fs.order[a]] < fs.caps[fs.order[b]] }
func (fs *fillScratch) Swap(a, b int)      { fs.order[a], fs.order[b] = fs.order[b], fs.order[a] }

// fill distributes capacity across fs.caps max-min fairly: ascending caps,
// leftover shared among the unfilled. Caps are positive and finite, so the
// inline compare returns math.Min's bits. The returned slice aliases fs.out
// and is valid until the next fill.
func (fs *fillScratch) fill(capacity float64) []float64 {
	n := len(fs.caps)
	fs.out = resizeFloats(fs.out, n)
	fs.order = resizeInts(fs.order, n)
	for i := range fs.order {
		fs.order[i] = i
	}
	sort.Sort(fs)
	remaining := capacity
	left := n
	for _, i := range fs.order {
		share := remaining / float64(left) //mcdlalint:allow floatguard -- left counts down from n over exactly n iterations, so left >= 1 here
		r := fs.caps[i]
		if share < r {
			r = share
		}
		fs.out[i] = r
		remaining -= r
		left--
	}
	return fs.out
}

func resizeFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// Start begins a transfer of size bytes in group g at time t, in priority
// class pri: a group's bandwidth goes to its highest-priority active flows
// first (equal priorities share max-min fairly), modeling DMA queues where
// demand fetches outrank background lookahead. Priorities do not cross
// groups. extra is a fixed latency appended after the final byte (used by
// the collective model for its per-step α terms). Start panics if t
// precedes the channel clock: the single-actor discipline requires monotone
// issue times.
func (c *Channel) Start(t units.Time, g Group, size units.Bytes, extra units.Time, pri int) Flow {
	if g.ch != c {
		panic(fmt.Sprintf("sim: channel %q: flow started in a group not declared on it", c.name))
	}
	if size < 0 {
		panic(fmt.Sprintf("sim: channel %q: negative transfer size %d", c.name, size))
	}
	if !(extra >= 0) {
		panic(fmt.Sprintf("sim: channel %q: extra latency must be non-negative, got %v", c.name, extra))
	}
	c.AdvanceTo(t)
	h := Flow{ch: c, id: c.newStamp(extra)}
	if size == 0 {
		// Stamp from the channel clock, not the caller's t: AdvanceTo may
		// have left now past t (the clock is shared between issue sites),
		// and a completion in the clock's past would run Wait/Drain
		// backwards. Zero bytes move, so the stats stay untouched.
		c.stamps[h.id] = c.now + extra
		return h
	}
	if len(c.flows) == 0 {
		c.homeGroup, c.homePri, c.clock, c.served = g.id, pri, true, 0
	}
	f := flow{remaining: float64(size), pri: pri, group: int32(g.id), id: int32(h.id)}
	switch {
	case g.id != c.homeGroup || pri != c.homePri:
		c.leaveClock()
		c.flows = append(c.flows, f)
	case c.clock:
		c.homeN++
		f.remaining += c.served
		c.push(f)
	default:
		c.homeN++
		c.flows = append(c.flows, f)
	}
	c.allocate()
	return h
}

// AdvanceTo drains flow progress up to time t, completing flows whose bytes
// run out on the way. Calls with t before the channel clock are no-ops.
func (c *Channel) AdvanceTo(t units.Time) {
	for t > c.now {
		if len(c.flows) == 0 {
			c.now = t
			return
		}
		step := c.nextCompletionDelta()
		target := c.now + step
		switch {
		case target > t:
			c.progress(t - c.now)
			c.now = t
			return
		case target > c.now:
			c.now = target
			c.advance(step)
		default:
			// The delta is below the clock's float64 resolution: the
			// nearest flow is effectively complete right now.
			c.drainNearest(step)
		}
	}
}

// advanceToNextCompletion moves the clock to the earliest flow completion.
// Once the delta falls below the float64 resolution of c.now (a very fast
// flow late in a long run), AdvanceTo(c.now+delta) is a no-op; the nearest
// flow is then drained at the current instant, as AdvanceTo's own guard
// does, so the caller's loop always makes progress.
func (c *Channel) advanceToNextCompletion() {
	step := c.nextCompletionDelta()
	if c.now+step > c.now {
		c.AdvanceTo(c.now + step)
		return
	}
	c.drainNearest(step)
}

// drainNearest is a completion step whose delta the clock cannot resolve:
// the flows move by step, the nearest one is drained outright, and the
// drained flows complete at the current instant.
func (c *Channel) drainNearest(step units.Time) {
	c.progress(step)
	c.forceDrainNearest()
	c.advance(0)
}

// nextCompletionDelta reports the time until the earliest flow completion at
// current rates. At least one flow must be active. allocate leaves the delta
// cached; progress and forceDrainNearest, which move bytes, drop it.
func (c *Channel) nextCompletionDelta() units.Time {
	switch {
	case c.nextOK:
	case c.clock:
		c.next, c.nextOK = units.Time(c.clockNext()), true
	default:
		c.stats.Visits += len(c.flows)
		next := math.Inf(1)
		for i := range c.flows {
			next = min(next, c.flows[i].completesIn())
		}
		c.next, c.nextOK = units.Time(next), true
	}
	if math.IsInf(float64(c.next), 1) {
		// All active flows are rate-starved, which cannot happen with a
		// positive-capacity channel and positive max rates.
		panic(fmt.Sprintf("sim: channel %q deadlocked with %d rate-starved flows", c.name, len(c.flows)))
	}
	return c.next
}

// completesIn reports the time until f completes at its current rate, +Inf
// for a flow without bandwidth. A residue below byteEpsilon counts as
// byteEpsilon.
func (f *flow) completesIn() float64 {
	if f.rate <= 0 {
		return math.Inf(1)
	}
	return max(f.remaining, byteEpsilon) / float64(f.rate)
}

// forceDrainNearest zeroes the remaining bytes of the flow closest to
// completion, breaking sub-resolution stalls. On the virtual clock that is
// the heap minimum, whose tag drops to served if above it: the heap order
// holds, since every other tag is at least its old one.
func (c *Channel) forceDrainNearest() {
	if c.clock {
		f := &c.flows[0]
		c.stats.TotalBytes += max(f.remaining-c.served, 0)
		f.remaining = min(f.remaining, c.served)
		c.nextOK = false
		return
	}
	c.stats.Visits += len(c.flows)
	nearest := -1
	best := math.Inf(1)
	for i := range c.flows {
		f := &c.flows[i]
		if f.rate <= 0 {
			continue
		}
		if d := f.remaining / float64(f.rate); d < best {
			best = d
			nearest = i
		}
	}
	if nearest >= 0 {
		c.stats.TotalBytes += c.flows[nearest].remaining
		c.flows[nearest].remaining = 0
		c.nextOK = false
	}
}

// progress moves every active flow forward by dt at its current rate.
func (c *Channel) progress(dt units.Time) {
	if dt <= 0 {
		return
	}
	c.nextOK = false
	c.stats.BusyTime += dt
	if c.clock {
		c.serve(dt)
		return
	}
	c.stats.Visits += len(c.flows)
	total := c.stats.TotalBytes
	for i := range c.flows {
		f := &c.flows[i]
		moved := float64(f.rate) * float64(dt)
		if moved > f.remaining {
			moved = f.remaining
		}
		f.remaining -= moved
		total += moved
	}
	c.stats.TotalBytes = total
}

// byteEpsilon is the residue below which a flow counts as drained. Flow
// arithmetic accumulates float64 error well under half a byte; treating such
// residues as complete keeps completion deltas representable against the
// channel clock (a sub-attosecond delta would otherwise stall AdvanceTo).
const byteEpsilon = 0.5

// advance is progress and the completion sweep in one pass: every flow
// moves dt at its current rate, and a flow left with at most byteEpsilon
// completes, stamped at the channel clock, and leaves the flow table. The
// flows ahead of the first completion keep their slots untouched. The
// channel then re-fills. advance(0) moves nothing and only sweeps: at an
// infinite rate, rate·0 would be NaN. On the virtual clock the sweep pops
// the heap while its minimum has at most byteEpsilon left.
func (c *Channel) advance(dt units.Time) {
	if dt > 0 {
		c.stats.BusyTime += dt
	}
	if c.clock {
		if dt > 0 {
			c.serve(dt)
		}
		for len(c.flows) > 0 && c.flows[0].remaining-c.served <= byteEpsilon {
			c.complete(c.pop())
			c.homeN--
		}
		c.allocate()
		return
	}
	c.stats.Visits += len(c.flows)
	total := c.stats.TotalBytes
	kept := 0
	for i := range c.flows {
		f := &c.flows[i]
		if dt > 0 {
			moved := float64(f.rate) * float64(dt)
			if moved > f.remaining {
				moved = f.remaining
			}
			f.remaining -= moved
			total += moved
		}
		if f.remaining <= byteEpsilon {
			c.complete(f.id)
			if int(f.group) == c.homeGroup && f.pri == c.homePri {
				c.homeN--
			}
			continue
		}
		if kept < i {
			c.flows[kept] = *f
		}
		kept++
	}
	c.flows = c.flows[:kept]
	c.stats.TotalBytes = total
	c.allocate()
}

// complete stamps the flow with stamp index id, drained at the channel
// clock, as completed, and tracks the latest stamp for Drain.
func (c *Channel) complete(id int32) {
	at := c.now - c.stamps[id] // now + extra
	c.stamps[id] = at
	c.latest = max(c.latest, at)
}

// Wait advances the channel until flow f completes and returns the time the
// caller resumes: never earlier than t (the caller's own clock).
func (c *Channel) Wait(t units.Time, f Flow) units.Time {
	if f.ch != c {
		panic(fmt.Sprintf("sim: flow waited on wrong channel %q", c.name))
	}
	c.AdvanceTo(t)
	for !c.done(f.id) {
		c.advanceToNextCompletion()
	}
	return units.MaxTime(t, c.stamps[f.id])
}

// Drain advances the channel until every active flow completes and returns
// the later of t and the final completion time (including extra latencies).
func (c *Channel) Drain(t units.Time) units.Time {
	c.AdvanceTo(t)
	c.latest = t
	for len(c.flows) > 0 {
		c.advanceToNextCompletion()
	}
	return c.latest
}
