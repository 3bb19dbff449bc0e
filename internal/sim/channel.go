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
// Within a group, flows sit in priority classes, and the members of one
// class always move at one rate, so each class keeps a virtual clock: the
// bytes each member has moved, and a heap of the members' finish tags.
// Completions are resolved lazily as simulated time advances, so a single
// sequential actor — one symmetric device of the 8-device node — can drive
// the whole timeline deterministically.
//
// A simulation that is done with a channel hands it back with Release, and
// the next NewChannel reuses its tables: their capacity carries over, their
// contents do not, so a reused channel computes every bit a fresh one does.
package sim

import (
	"fmt"
	"math"
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

// flow is an in-flight transfer's entry in its class's heap. Its stamp
// index is 32-bit: a channel starts fewer than 2³¹ flows, whose stamps
// alone would take 16 GiB.
type flow struct {
	tag float64 // the class's served bytes at the flow's start plus its size
	id  int32   // index of the flow's stamp in ch.stamps
}

// before orders a class's heap: earlier finish tags first, ties by start
// order.
func (f *flow) before(g *flow) bool {
	return f.tag < g.tag || f.tag == g.tag && f.id < g.id
}

// class is one priority class of a group with members in flight. Its
// members all move at one rate, so served, the bytes each of them has moved
// since the class became active, stands for every member's progress: a
// member has its finish tag less served bytes left. The class is dropped
// when its last member completes, so served restarts at 0 with the next.
type class struct {
	pri    int
	served float64
	rate   units.Bandwidth // each member's rate, set by the last fill
	flows  []flow          // min-heap of finish tags
	due    bool            // a partial move left the heap minimum drained
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

// group is one declared group and its active classes.
type group struct {
	rate   units.Bandwidth
	shared bool
	n      int // members in flight, over every class
	// classes holds the active classes in descending priority. The entries
	// between its length and its capacity are spare classes whose heaps
	// keep the capacity they grew.
	classes []class
	// moving counts the classes at the top of classes that the last fill
	// gave a positive rate; the classes below it are parked at rate 0.
	moving int
	due    int // classes marked due
}

// Channel is a shared, half-duplex bandwidth resource. Concurrent flows
// receive max-min fair shares of Capacity through their groups: groups
// share the channel, and each group's share goes to its members by
// descending priority class, each moving at most the group's rate. The
// zero Channel is not usable; construct with NewChannel.
type Channel struct {
	name     string
	capacity units.Bandwidth
	now      units.Time
	// groups holds the declared groups. The entries between its length and
	// its capacity are spare groups whose class tables keep their capacity.
	groups   []group
	inFlight int // flows in flight
	// stamps holds one entry per flow started, indexed by Flow.id. Its
	// sign bit says whether the flow is in flight: an in-flight flow's
	// stamp is its extra latency negated (−0 for none), a completed flow's
	// is its completion time, which the clock and a non-negative extra
	// latency keep non-negative.
	stamps []units.Time

	stats ChannelStats

	// next caches nextCompletionDelta while nextOK: allocate sets it, and
	// whatever moves bytes without a re-fill clears nextOK.
	next   units.Time
	nextOK bool

	// topFill keeps the group-level fill's working storage off the heap:
	// every flow start and completion reruns the water-fill.
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
	n := len(c.groups)
	if n < cap(c.groups) {
		c.groups = c.groups[:n+1]
	} else {
		c.groups = append(c.groups, group{})
	}
	c.groups[n] = group{rate: rate, shared: shared, classes: c.groups[n].classes[:0]}
	return Group{ch: c, id: n}
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
	// Visits counts the entries the event loop touches: one per push onto
	// or pop off a class's heap, and one per class entry that a start's
	// class lookup, a fill, a move or a completion search walks. A fill
	// stops where a group's share runs out, so the classes parked below it
	// cost nothing. It measures what each event costs, as Fills measures
	// how many events there are.
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

// Release hands the channel's stamp, group, class and fill tables back for
// a later NewChannel to reuse. Neither the channel nor any Flow or Group
// on it may be used afterwards. A channel that is never released is
// garbage collected as usual.
func (c *Channel) Release() {
	*c = Channel{
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
// two-level water-filling. The active groups, in declaration order, share
// the channel capacity max-min fairly, each demanding its rate if shared
// and n·rate if not. Each group's share then goes to its classes from the
// top: an unshared class of n members whose n·rate fits what is left moves
// at the rate and passes the rest down; any other class, and every class
// of a shared group, splits what is left n ways and spends it. The classes
// below a spent share keep rate 0 and are not visited. On a one-class set
// this is the virtual clock's closed form: n members of an unshared group
// move at the rate while n·rate fits the capacity and at capacity/n
// otherwise, and a shared group's members split the lesser of its rate and
// the capacity. It runs on every flow start and completion, so its working
// storage lives in the channel.
//
// Deferring a round to the next rate read would skip only states that last
// zero simulated time, yet it would change PeakRate: the peak is the largest
// rounded total, and a zero-duration state's total can exceed those of the
// states around it by an ulp (TestPeakRateCountsZeroDurationStates).
func (c *Channel) allocate() {
	c.nextOK = false
	if c.inFlight == 0 {
		return
	}
	c.stats.Fills++
	caps := c.topFill.caps[:0]
	for i := range c.groups {
		if g := &c.groups[i]; g.n > 0 {
			demand := float64(g.n) * float64(g.rate)
			if g.shared {
				demand = float64(g.rate)
			}
			caps = append(caps, demand)
		}
	}
	c.topFill.caps = caps
	shares := c.topFill.fill(float64(c.capacity))
	total, next := units.Bandwidth(0), math.Inf(1)
	unit := 0
	for i := range c.groups {
		g := &c.groups[i]
		if g.n == 0 {
			continue
		}
		rem, rate := shares[unit], float64(g.rate)
		unit++
		g.moving = 0
		for k := range g.classes {
			c.stats.Visits++
			cl := &g.classes[k]
			n, r := float64(len(cl.flows)), rate
			if !g.shared && n*rate <= rem {
				rem -= n * rate
			} else {
				r, rem = rem/n, 0 //mcdlalint:allow floatguard -- an active class has at least one member
			}
			cl.rate = units.Bandwidth(r)
			g.moving++
			total += units.Bandwidth(n * r)
			next = min(next, cl.untilDone())
			if rem <= 0 {
				break
			}
		}
	}
	c.next, c.nextOK = units.Time(next), true
	if total > c.stats.PeakRate {
		c.stats.PeakRate = total
	}
}

// untilDone reports the time until the class's heap minimum completes at
// the class's rate. A residue below byteEpsilon counts as byteEpsilon.
func (cl *class) untilDone() float64 {
	return max(cl.flows[0].tag-cl.served, byteEpsilon) / float64(cl.rate) //mcdlalint:allow floatguard -- only moving classes are asked, and a fill gives each a positive rate
}

// class returns group g's class pri, adding it in its place, with served
// at 0, if it has no member in flight.
func (c *Channel) class(g *group, pri int) *class {
	k := 0
	for ; k < len(g.classes) && g.classes[k].pri >= pri; k++ {
		c.stats.Visits++
		if g.classes[k].pri == pri {
			return &g.classes[k]
		}
	}
	n := len(g.classes)
	if n < cap(g.classes) {
		g.classes = g.classes[:n+1]
	} else {
		g.classes = append(g.classes, class{})
	}
	if k < n {
		spare := g.classes[n]
		copy(g.classes[k+1:], g.classes[k:n])
		g.classes[k] = spare
	}
	cl := &g.classes[k]
	*cl = class{pri: pri, flows: cl.flows[:0]}
	return cl
}

// drop removes group g's class k, whose heap is empty, and keeps it as a
// spare past the table's end.
func (g *group) drop(k int) {
	last := len(g.classes) - 1
	if k < last {
		spare := g.classes[k]
		copy(g.classes[k:], g.classes[k+1:])
		g.classes[last] = spare
	}
	g.classes = g.classes[:last]
}

// push adds a flow to the class's heap.
func (c *Channel) push(cl *class, f flow) {
	c.stats.Visits++
	cl.flows = append(cl.flows, f)
	h := cl.flows
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if !h[i].before(&h[up]) {
			break
		}
		h[i], h[up] = h[up], h[i]
		i = up
	}
}

// pop removes the class's heap minimum and returns its stamp index.
func (c *Channel) pop(cl *class) int32 {
	c.stats.Visits++
	id, last := cl.flows[0].id, len(cl.flows)-1
	cl.flows[0] = cl.flows[last]
	cl.flows = cl.flows[:last]
	cl.down(0)
	return id
}

// down sifts heap entry i down to its place.
func (cl *class) down(i int) {
	h := cl.flows
	for {
		least := i
		for _, k := range [2]int{2*i + 1, 2*i + 2} {
			if k < len(h) && h[k].before(&h[least]) {
				least = k
			}
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// serve moves the class's members dt forward at their one rate: served
// grows by the bytes one member moves, and TotalBytes by what all of them
// move, a member with fewer bytes left than that moving only those.
func (c *Channel) serve(cl *class, dt units.Time) {
	moved := float64(cl.rate) * float64(dt)
	n, left := cl.short(0, moved)
	if kept := len(cl.flows) - n; kept > 0 {
		left += float64(kept) * moved
	}
	c.stats.TotalBytes += left
	cl.served += moved
}

// short counts the heap entries at or below i with fewer than moved bytes
// left and sums the bytes they have left. No entry has more left than the
// entries below it, so the walk stops at the first with moved or more:
// usually the root, or the flows about to complete.
func (cl *class) short(i int, moved float64) (n int, left float64) {
	if i >= len(cl.flows) {
		return 0, 0
	}
	own := cl.flows[i].tag - cl.served
	if own >= moved {
		return 0, 0
	}
	n1, left1 := cl.short(2*i+1, moved)
	n2, left2 := cl.short(2*i+2, moved)
	return 1 + n1 + n2, max(own, 0) + left1 + left2
}

// fillScratch is the group-level water-fill's working set: callers load
// caps, fill computes shares in place.
type fillScratch struct {
	caps  []float64
	out   []float64
	order []int
}

// fill distributes capacity across fs.caps max-min fairly: ascending caps,
// equal caps in load order, leftover shared among the unfilled. Caps are
// positive and finite, so the inline compare returns math.Min's bits. The
// returned slice aliases fs.out and is valid until the next fill.
func (fs *fillScratch) fill(capacity float64) []float64 {
	n := len(fs.caps)
	fs.out = resizeFloats(fs.out, n)
	fs.order = resizeInts(fs.order, n)
	// A channel has a handful of groups, so an insertion sort orders them.
	for i := range fs.order {
		k := i
		for ; k > 0 && fs.caps[fs.order[k-1]] > fs.caps[i]; k-- {
			fs.order[k] = fs.order[k-1]
		}
		fs.order[k] = i
	}
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
	gr := &c.groups[g.id]
	cl := c.class(gr, pri)
	c.push(cl, flow{tag: cl.served + float64(size), id: int32(h.id)})
	gr.n++
	c.inFlight++
	c.allocate()
	return h
}

// AdvanceTo drains flow progress up to time t, completing flows whose bytes
// run out on the way. Calls with t before the channel clock are no-ops.
func (c *Channel) AdvanceTo(t units.Time) {
	for t > c.now {
		if c.inFlight == 0 {
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
// current rates: the least over the moving classes of the heap minimum's
// time to completion. At least one flow must be active. allocate leaves the
// delta cached; progress and forceDrainNearest, which move bytes, drop it.
func (c *Channel) nextCompletionDelta() units.Time {
	if !c.nextOK {
		next := math.Inf(1)
		for i := range c.groups {
			g := &c.groups[i]
			if g.n == 0 {
				continue
			}
			for k := range g.moving {
				c.stats.Visits++
				next = min(next, g.classes[k].untilDone())
			}
		}
		c.next, c.nextOK = units.Time(next), true
	}
	if math.IsInf(float64(c.next), 1) {
		// All active flows are rate-starved, which cannot happen with a
		// positive-capacity channel and positive max rates.
		panic(fmt.Sprintf("sim: channel %q deadlocked with %d rate-starved flows", c.name, c.inFlight))
	}
	return c.next
}

// forceDrainNearest drains the flow closest to completion, breaking
// sub-resolution stalls: the heap minimum of the moving class it completes
// soonest in, whose tag drops to served if above it. The heap order holds,
// since every other tag in the class is at least its old one.
func (c *Channel) forceDrainNearest() {
	var nearest *class
	best := math.Inf(1)
	for i := range c.groups {
		g := &c.groups[i]
		if g.n == 0 {
			continue
		}
		for k := range g.moving {
			c.stats.Visits++
			cl := &g.classes[k]
			if d := (cl.flows[0].tag - cl.served) / float64(cl.rate); d < best { //mcdlalint:allow floatguard -- a fill gives each moving class a positive rate
				best, nearest = d, cl
			}
		}
	}
	if nearest != nil {
		f := &nearest.flows[0]
		c.stats.TotalBytes += max(f.tag-nearest.served, 0)
		f.tag = min(f.tag, nearest.served)
		c.nextOK = false
	}
}

// progress moves every moving class forward by dt at its rate. A class
// whose heap minimum it leaves within byteEpsilon of done becomes due: the
// next completion step completes that flow even if a fill parks the class
// in between.
func (c *Channel) progress(dt units.Time) {
	if dt <= 0 {
		return
	}
	c.nextOK = false
	c.stats.BusyTime += dt
	for i := range c.groups {
		g := &c.groups[i]
		if g.n == 0 {
			continue
		}
		for k := range g.moving {
			c.stats.Visits++
			cl := &g.classes[k]
			c.serve(cl, dt)
			if !cl.due && cl.flows[0].tag-cl.served <= byteEpsilon {
				cl.due = true
				g.due++
			}
		}
	}
}

// byteEpsilon is the residue below which a flow counts as drained. Flow
// arithmetic accumulates float64 error well under half a byte; treating such
// residues as complete keeps completion deltas representable against the
// channel clock (a sub-attosecond delta would otherwise stall AdvanceTo).
const byteEpsilon = 0.5

// advance is progress and the completion sweep in one step: every moving
// class moves dt at its rate and pops the tags within byteEpsilon of its
// served bytes, each stamped at the channel clock; a class left empty is
// dropped. The sweep also reaches down to each due class, one parked with
// its heap minimum drained by an earlier partial move. The channel then
// re-fills. advance(0) moves nothing and only sweeps: at an infinite rate,
// rate·0 would be NaN.
func (c *Channel) advance(dt units.Time) {
	if dt > 0 {
		c.stats.BusyTime += dt
	}
	for i := range c.groups {
		g := &c.groups[i]
		if g.n == 0 {
			continue
		}
		moving := g.moving
		for k := 0; k < moving || g.due > 0 && k < len(g.classes); {
			c.stats.Visits++
			cl := &g.classes[k]
			if k < moving && dt > 0 {
				c.serve(cl, dt)
			}
			if cl.due {
				cl.due = false
				g.due--
			}
			for len(cl.flows) > 0 && cl.flows[0].tag-cl.served <= byteEpsilon {
				c.complete(c.pop(cl))
				g.n--
				c.inFlight--
			}
			if len(cl.flows) > 0 {
				k++
				continue
			}
			g.drop(k)
			if k < moving {
				moving--
			}
		}
	}
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
	for c.inFlight > 0 {
		c.advanceToNextCompletion()
	}
	return c.latest
}
