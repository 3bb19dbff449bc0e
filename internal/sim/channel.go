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
package sim

import (
	"fmt"
	"math"
	"sort"

	"github.com/memcentric/mcdla/internal/units"
)

// Flow is an in-flight bulk transfer on a Channel.
type Flow struct {
	ch        *Channel
	group     int             // index of the flow's group in ch.groups
	pri       int             // priority class within the group (higher first)
	remaining float64         // bytes left to move
	rate      units.Bandwidth // current allocated rate
	done      bool
	doneAt    units.Time
	extra     units.Time // fixed latency appended after the last byte lands
}

// Done reports whether the flow has completed.
func (f *Flow) Done() bool { return f.done }

// DoneAt reports the completion time. It is only meaningful once Done.
func (f *Flow) DoneAt() units.Time { return f.doneAt }

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

// Channel is a shared, half-duplex bandwidth resource. Concurrent flows
// receive max-min fair shares of Capacity through their groups: groups
// share the channel, and each group's share goes to its members, each
// moving at most the group's rate. The zero Channel is not usable;
// construct with NewChannel.
type Channel struct {
	name     string
	capacity units.Bandwidth
	now      units.Time
	flows    []*Flow
	groups   []group

	stats ChannelStats

	// next caches nextCompletionDelta while nextOK: allocate sets it, and
	// whatever moves bytes without a re-fill clears nextOK.
	next   units.Time
	nextOK bool

	// Scratch state below keeps the steady-state hot path (Start → allocate
	// → water-fill) off the heap: every flow start and completion reruns the
	// two-level water-fill, so these buffers are hit once per event.
	arena     []Flow // current flow allocation block (see newFlow)
	arenaUsed int
	topFill   fillScratch // top-level fill across groups

	// latest is the latest completion time stamped since Drain set it.
	latest units.Time
}

// arenaBlock is the Flow allocation granularity: steady state pays one heap
// allocation per arenaBlock flow starts instead of one per flow.
const arenaBlock = 64

// newFlow hands out a Flow from the current arena block, starting a fresh
// block when it runs out. Slots are never reused while the arena is live, so
// caller-held *Flow pointers stay valid; Reset drops the block wholesale.
func (c *Channel) newFlow() *Flow {
	if c.arenaUsed == len(c.arena) {
		c.arena = make([]Flow, arenaBlock)
		c.arenaUsed = 0
	}
	f := &c.arena[c.arenaUsed]
	c.arenaUsed++
	return f
}

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
	// Visits counts flow visits: every pass over the in-flight flows adds
	// their number once. It measures what each event costs, as Fills
	// measures how many events there are.
	Visits int
}

// NewChannel creates a channel with the given aggregate capacity.
func NewChannel(name string, capacity units.Bandwidth) *Channel {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: channel %q capacity must be positive, got %v", name, capacity))
	}
	return &Channel{name: name, capacity: capacity}
}

// Name reports the channel's name.
func (c *Channel) Name() string { return c.name }

// Capacity reports the channel's aggregate capacity.
func (c *Channel) Capacity() units.Bandwidth { return c.capacity }

// Now reports the channel-local clock (the latest time it has advanced to).
func (c *Channel) Now() units.Time { return c.now }

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
// After a counting pass, one pass over the flows fills every top class,
// sums the total in flow order and finds the next completion. A flow set
// of one group and one class, the common case, takes fillUniform's loop
// instead. Only a group whose top class left part of its share unspent
// cascades to its lower classes, and only then are the total and the next
// completion re-summed: a lower-class flow the cascade does not reach keeps
// rate +0, which adds nothing to either.
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
	c.stats.Visits += len(c.flows)
	for i := range c.groups {
		c.groups[i].n = 0
	}
	caps := c.topFill.caps[:0]
	for _, f := range c.flows {
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
	if g := &c.groups[c.flows[0].group]; len(caps) == 1 && !g.lower {
		c.topFill.caps = caps
		c.fillUniform(g)
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
	c.topFill.caps = caps
	shares := c.topFill.fill(float64(c.capacity))
	for i := range c.groups {
		if g := &c.groups[i]; g.n > 0 {
			g.rem = shares[g.unit]
		}
	}
	c.stats.Visits += len(c.flows)
	total, next := units.Bandwidth(0), math.Inf(1)
	for _, f := range c.flows {
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
		for _, f := range c.flows {
			total += f.rate
			next = min(next, f.completesIn())
		}
	}
	c.settle(total, next)
}

// fillUniform fills a flow set whose members all sit in group g's one
// class: the general route's operations in the same order, with the
// group's working state in locals. The top-level fill of one group hands it
// min(capacity/1, cap), and capacity/1 is capacity exactly.
func (c *Channel) fillUniform(g *group) {
	c.stats.Visits += len(c.flows)
	rem := g.sum
	if g.shared {
		rem = float64(g.rate)
	}
	if capacity := float64(c.capacity); capacity < rem {
		rem = capacity
	}
	rate, left := float64(g.rate), g.n
	total, next := units.Bandwidth(0), math.Inf(1)
	for _, f := range c.flows {
		share := rem / float64(left) //mcdlalint:allow floatguard -- left counts down from the set's member count, one per flow, so left >= 1 here
		r := rate
		if share < r {
			r = share
		}
		rem -= r
		left--
		f.rate = units.Bandwidth(r)
		total += f.rate
		next = min(next, f.completesIn())
	}
	c.settle(total, next)
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
		for _, f := range c.flows {
			if f.group != id || f.pri >= above {
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
		for _, f := range c.flows {
			if f.group == id && f.pri == g.pri {
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
func (c *Channel) Start(t units.Time, g Group, size units.Bytes, extra units.Time, pri int) *Flow {
	if g.ch != c {
		panic(fmt.Sprintf("sim: channel %q: flow started in a group not declared on it", c.name))
	}
	if size < 0 {
		panic(fmt.Sprintf("sim: channel %q: negative transfer size %d", c.name, size))
	}
	c.AdvanceTo(t)
	f := c.newFlow()
	*f = Flow{ch: c, group: g.id, pri: pri, remaining: float64(size), extra: extra}
	if size == 0 {
		// Stamp from the channel clock, not the caller's t: AdvanceTo may
		// have left now past t (the clock is shared between issue sites),
		// and a completion in the clock's past would run Wait/Drain
		// backwards. Zero bytes move, so the stats stay untouched.
		f.done = true
		f.doneAt = c.now + extra
		return f
	}
	c.flows = append(c.flows, f)
	c.allocate()
	return f
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
	if !c.nextOK {
		c.stats.Visits += len(c.flows)
		next := math.Inf(1)
		for _, f := range c.flows {
			next = min(next, f.completesIn())
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
func (f *Flow) completesIn() float64 {
	if f.rate <= 0 {
		return math.Inf(1)
	}
	return max(f.remaining, byteEpsilon) / float64(f.rate)
}

// forceDrainNearest zeroes the remaining bytes of the flow closest to
// completion, breaking sub-resolution stalls.
func (c *Channel) forceDrainNearest() {
	c.stats.Visits += len(c.flows)
	var nearest *Flow
	best := math.Inf(1)
	for _, f := range c.flows {
		if f.rate <= 0 {
			continue
		}
		if d := f.remaining / float64(f.rate); d < best {
			best = d
			nearest = f
		}
	}
	if nearest != nil {
		c.stats.TotalBytes += nearest.remaining
		nearest.remaining = 0
		c.nextOK = false
	}
}

// progress moves every active flow forward by dt at its current rate.
func (c *Channel) progress(dt units.Time) {
	if dt <= 0 {
		return
	}
	c.nextOK = false
	c.stats.Visits += len(c.flows)
	total := c.stats.TotalBytes
	for _, f := range c.flows {
		moved := float64(f.rate) * float64(dt)
		if moved > f.remaining {
			moved = f.remaining
		}
		f.remaining -= moved
		total += moved
	}
	c.stats.TotalBytes = total
	c.stats.BusyTime += dt
}

// byteEpsilon is the residue below which a flow counts as drained. Flow
// arithmetic accumulates float64 error well under half a byte; treating such
// residues as complete keeps completion deltas representable against the
// channel clock (a sub-attosecond delta would otherwise stall AdvanceTo).
const byteEpsilon = 0.5

// advance is progress and the completion sweep in one pass: every flow
// moves dt at its current rate, and a flow left with at most byteEpsilon
// completes, stamped at the channel clock, and leaves the flow list. The
// flows ahead of the first completion keep their slots untouched. The
// channel then re-fills. advance(0) moves nothing and only sweeps: at an
// infinite rate, rate·0 would be NaN.
func (c *Channel) advance(dt units.Time) {
	c.stats.Visits += len(c.flows)
	total, latest := c.stats.TotalBytes, c.latest
	kept := 0
	for i, f := range c.flows {
		if dt > 0 {
			moved := float64(f.rate) * float64(dt)
			if moved > f.remaining {
				moved = f.remaining
			}
			f.remaining -= moved
			total += moved
		}
		if f.remaining <= byteEpsilon {
			f.remaining = 0
			f.done = true
			f.doneAt = c.now + f.extra
			latest = max(latest, f.doneAt)
			continue
		}
		if kept < i {
			c.flows[kept] = f
		}
		kept++
	}
	c.flows = c.flows[:kept]
	c.stats.TotalBytes, c.latest = total, latest
	if dt > 0 {
		c.stats.BusyTime += dt
	}
	c.allocate()
}

// Wait advances the channel until flow f completes and returns the time the
// caller resumes: never earlier than t (the caller's own clock).
func (c *Channel) Wait(t units.Time, f *Flow) units.Time {
	if f.ch != c {
		panic(fmt.Sprintf("sim: flow waited on wrong channel %q", c.name))
	}
	c.AdvanceTo(t)
	for !f.done {
		c.advanceToNextCompletion()
	}
	return units.MaxTime(t, f.doneAt)
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

// ActiveFlows reports how many flows are currently in flight.
func (c *Channel) ActiveFlows() int { return len(c.flows) }

// Reset clears flows, clock and statistics, reusing the channel for a fresh
// simulation run. The flow arena is dropped wholesale — callers may still
// hold *Flow pointers from the finished run, so slots are never recycled.
// Declared groups stay.
func (c *Channel) Reset() {
	c.flows = nil
	c.now = 0
	c.stats = ChannelStats{}
	c.nextOK = false
	c.arena = nil
	c.arenaUsed = 0
}
