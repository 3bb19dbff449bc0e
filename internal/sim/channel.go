// Package sim is the discrete-event core of the mcdla simulator.
//
// The paper's in-house simulator (§IV) models all inter-node traffic as
// coarse-grained bulk DMA transfers over fixed-bandwidth channels, with
// computation overlapped against communication. Package sim provides exactly
// that abstraction: a Channel is a shared bandwidth resource carrying
// concurrent Flows under max-min fair sharing, where each Flow may be capped
// at its own maximum rate (e.g. a DMA engine that can only stripe across two
// of a memory-node's six links). Completions are resolved lazily as simulated
// time advances, so a single sequential actor — one symmetric device of the
// 8-device node — can drive the whole timeline deterministically.
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
	tag       string  // names the flow in panic messages
	group     string  // shared-cap group ("" = independent)
	pri       int     // priority class within the group (higher first)
	unit      int     // index of the flow's unit in the last allocate round
	remaining float64 // bytes left to move
	maxRate   units.Bandwidth
	rate      units.Bandwidth // current allocated rate
	done      bool
	doneAt    units.Time
	extra     units.Time // fixed latency appended after the last byte lands
}

// Done reports whether the flow has completed.
func (f *Flow) Done() bool { return f.done }

// DoneAt reports the completion time. It is only meaningful once Done.
func (f *Flow) DoneAt() units.Time { return f.doneAt }

// Channel is a shared, half-duplex bandwidth resource. Concurrent flows
// receive max-min fair shares of Capacity, each additionally capped by its
// own maxRate. The zero Channel is not usable; construct with NewChannel.
type Channel struct {
	name     string
	capacity units.Bandwidth
	now      units.Time
	flows    []*Flow
	// groupCaps bounds the aggregate rate of all flows sharing a group —
	// e.g. a DMA engine whose link group tops out below the channel's full
	// link complex (MC-DLA(S)'s two memory-node links on six shared links).
	groupCaps map[string]units.Bandwidth

	stats ChannelStats

	// Scratch state below keeps the steady-state hot path (Start → allocate
	// → water-fill, and the Drain loop) off the heap: every flow start and
	// completion reruns the two-level water-fill, so these buffers are hit
	// once per event. All of it is pure capacity reuse — the fill arithmetic
	// and sort permutations are unchanged, keeping results bit-identical.
	arena      []Flow // current flow allocation block (see newFlow)
	arenaUsed  int
	units      []allocUnit // allocate's unit list
	members    []*Flow     // one non-uniform unit's member flows
	topFill    fillScratch // top-level fill across units
	memberFill fillScratch // per-unit fill across member flows
	classFill  fillScratch // per-priority-class fill inside priorityFill
	pri        priScratch  // priorityFill's order/output buffers
	drained    []*Flow     // Drain's per-step completion snapshot
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

// SetGroupCap bounds the aggregate rate of flows started in the named group.
func (c *Channel) SetGroupCap(group string, cap units.Bandwidth) {
	if group == "" {
		panic("sim: group name must be nonempty")
	}
	if cap <= 0 {
		panic(fmt.Sprintf("sim: group %q cap must be positive", group))
	}
	if c.groupCaps == nil {
		c.groupCaps = make(map[string]units.Bandwidth)
	}
	c.groupCaps[group] = cap
}

// ChannelStats accumulates a channel's traffic accounting: the bytes moved
// (TotalBytes, cross-checked by RateIntegral), the time the channel was busy
// (the plane's switch and uplink occupancy) and the peak aggregate rate
// (Figure 12's peak CPU memory bandwidth).
type ChannelStats struct {
	TotalBytes float64
	// BusyTime integrates wall time during which at least one flow was active.
	BusyTime units.Time
	// PeakRate is the maximum instantaneous aggregate rate observed.
	PeakRate units.Bandwidth
	// RateIntegral is ∫rate·dt (bytes moved), kept separately from TotalBytes
	// as a self-check: the two must agree.
	RateIntegral float64
	// Fills counts water-fill rounds over a nonempty flow set: an exact,
	// machine-independent measure of the event loop's work.
	Fills int
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

// allocUnit is one contender in the top-level water-fill: either a lone flow
// (group "") or a whole group of flows sharing a cap. A uniform unit (every
// member shares pri and maxRate) is filled in flow order in one pass: its
// caps are all equal, so the sort inside fill is the identity permutation
// and the generic route would hand out exactly the same shares.
type allocUnit struct {
	group   string
	cap     float64         // group cap, then bounded by sum
	sum     float64         // member maxRates, added in flow order
	n       int             // member count
	pri     int             // first member's priority
	rate    units.Bandwidth // first member's maxRate
	uniform bool
	rem     float64 // uniform fill: share not yet handed out
	left    int     // uniform fill: members not yet filled
}

// allocate recomputes max-min fair rates for the active flows using
// two-level water-filling: groups (and independent flows) share the channel
// capacity max-min fairly, then each group's allocation is water-filled
// across its members. It runs on every flow start and completion, so all of
// its working storage lives in Channel scratch buffers. A flow finds its
// group's unit by a linear scan: a channel carries a handful of units.
//
// Deferring a round to the next rate read would skip only states that last
// zero simulated time, yet it would change PeakRate: the peak is the largest
// rounded total, and a zero-duration state's total can exceed those of the
// states around it by an ulp (TestPeakRateCountsZeroDurationStates).
func (c *Channel) allocate() {
	if len(c.flows) == 0 {
		return
	}
	c.stats.Fills++
	c.units = c.units[:0]
	for _, f := range c.flows {
		idx := -1
		if f.group != "" {
			idx = c.unitOf(f.group)
		}
		if idx < 0 {
			groupCap := float64(f.maxRate)
			if f.group != "" {
				groupCap = math.Inf(1)
				if g, has := c.groupCaps[f.group]; has {
					groupCap = float64(g)
				}
			}
			idx = len(c.units)
			c.units = append(c.units, allocUnit{group: f.group, cap: groupCap, pri: f.pri, rate: f.maxRate, uniform: true})
		}
		u := &c.units[idx]
		u.n++
		u.sum += float64(f.maxRate)
		u.uniform = u.uniform && f.pri == u.pri && f.maxRate == u.rate
		f.unit = idx
	}
	// A group's effective demand is also bounded by its members' caps.
	c.topFill.caps = c.topFill.caps[:0]
	for i := range c.units {
		c.units[i].cap = math.Min(c.units[i].cap, c.units[i].sum)
		c.topFill.caps = append(c.topFill.caps, c.units[i].cap)
	}
	shares := c.topFill.fill(float64(c.capacity))
	for i := range c.units {
		u := &c.units[i]
		u.rem, u.left = shares[i], u.n
		if u.uniform {
			continue
		}
		c.members = c.members[:0]
		for _, f := range c.flows {
			if f.unit == i {
				c.members = append(c.members, f)
			}
		}
		for j, r := range c.priorityFill(shares[i], c.members) {
			c.members[j].rate = units.Bandwidth(r)
		}
	}
	// Uniform units: fill's arithmetic over the identity order.
	total := units.Bandwidth(0)
	for _, f := range c.flows {
		if u := &c.units[f.unit]; u.uniform {
			share := u.rem / float64(u.left) //mcdlalint:allow floatguard -- left counts down from the unit's member count, one per member, so left >= 1 here
			r := math.Min(float64(f.maxRate), share)
			f.rate = units.Bandwidth(r)
			u.rem -= r
			u.left--
		}
		total += f.rate
	}
	if total > c.stats.PeakRate {
		c.stats.PeakRate = total
	}
}

// unitOf reports the index of the named group's unit, or -1.
func (c *Channel) unitOf(group string) int {
	for i := range c.units {
		if c.units[i].group == group {
			return i
		}
	}
	return -1
}

// priScratch holds priorityFill's reusable buffers. It doubles as the
// sort.Stable interface ordering flow indices by descending priority class —
// sort.Stable and sort.SliceStable share one stable-sort implementation, so
// the permutation (and thus every tie-broken fill) is unchanged.
type priScratch struct {
	order []int
	out   []float64
	flows []*Flow
}

func (s *priScratch) Len() int           { return len(s.order) }
func (s *priScratch) Less(a, b int) bool { return s.flows[s.order[a]].pri > s.flows[s.order[b]].pri }
func (s *priScratch) Swap(a, b int)      { s.order[a], s.order[b] = s.order[b], s.order[a] }

// priorityFill distributes a unit's capacity across its member flows:
// strictly by descending priority class, max-min fairly within a class.
// The common all-priority-zero case reduces to a plain water-fill. The
// returned slice is scratch, valid until the next allocate round.
func (c *Channel) priorityFill(capacity float64, fs []*Flow) []float64 {
	uniform := true
	for _, f := range fs {
		if f.pri != fs[0].pri {
			uniform = false
			break
		}
	}
	if uniform {
		c.memberFill.caps = c.memberFill.caps[:0]
		for _, f := range fs {
			c.memberFill.caps = append(c.memberFill.caps, float64(f.maxRate))
		}
		return c.memberFill.fill(capacity)
	}
	s := &c.pri
	s.order = resizeInts(s.order, len(fs))
	for i := range s.order {
		s.order[i] = i
	}
	s.flows = fs
	sort.Stable(s)
	s.flows = nil
	order := s.order
	s.out = resizeFloats(s.out, len(fs))
	out := s.out
	remaining := capacity
	for lo := 0; lo < len(order); {
		hi := lo
		for hi < len(order) && fs[order[hi]].pri == fs[order[lo]].pri {
			hi++
		}
		c.classFill.caps = c.classFill.caps[:0]
		for _, i := range order[lo:hi] {
			c.classFill.caps = append(c.classFill.caps, float64(fs[i].maxRate))
		}
		shares := c.classFill.fill(remaining)
		for k, i := range order[lo:hi] {
			out[i] = shares[k]
			remaining -= shares[k]
		}
		lo = hi
	}
	return out
}

// fillScratch is one water-fill working set: callers load caps, fill
// computes shares in place. The three fill sites (top-level across units,
// per-unit across members, per-class inside priorityFill) nest, so each
// owns its own scratch. fillScratch is also the sort.Sort interface ordering
// indices by ascending cap — sort.Sort and sort.Slice share one pdqsort
// implementation, so the permutation is identical to the previous
// closure-based sort and results stay bit-identical.
type fillScratch struct {
	caps  []float64
	out   []float64
	order []int
}

func (fs *fillScratch) Len() int           { return len(fs.order) }
func (fs *fillScratch) Less(a, b int) bool { return fs.caps[fs.order[a]] < fs.caps[fs.order[b]] }
func (fs *fillScratch) Swap(a, b int)      { fs.order[a], fs.order[b] = fs.order[b], fs.order[a] }

// fill distributes capacity across fs.caps max-min fairly: ascending caps,
// leftover shared among the unfilled. The returned slice aliases fs.out and
// is valid until the next fill on the same scratch.
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
		r := math.Min(fs.caps[i], share)
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

// Start begins a transfer of size bytes at time t, capped at maxRate.
// extra is a fixed latency appended after the final byte (used by the
// collective model for its per-step α terms). Start panics if t precedes the
// channel clock: the single-actor discipline requires monotone issue times.
func (c *Channel) Start(t units.Time, tag string, size units.Bytes, maxRate units.Bandwidth, extra units.Time) *Flow {
	return c.StartGroup(t, tag, "", size, maxRate, extra)
}

// StartGroup is Start with the flow placed in a shared-cap group (see
// SetGroupCap).
func (c *Channel) StartGroup(t units.Time, tag, group string, size units.Bytes, maxRate units.Bandwidth, extra units.Time) *Flow {
	return c.StartGroupPriority(t, tag, group, size, maxRate, extra, 0)
}

// StartGroupPriority is StartGroup with a priority class: a group's
// bandwidth goes to its highest-priority active flows first (equal
// priorities share max-min fairly), modeling DMA queues where demand
// fetches outrank background lookahead. Priorities do not cross group
// boundaries — groups still share the channel max-min fairly.
func (c *Channel) StartGroupPriority(t units.Time, tag, group string, size units.Bytes, maxRate units.Bandwidth, extra units.Time, pri int) *Flow {
	if size < 0 {
		panic(fmt.Sprintf("sim: channel %q: negative transfer size %d", c.name, size))
	}
	if maxRate <= 0 {
		panic(fmt.Sprintf("sim: channel %q: flow %q max rate must be positive", c.name, tag))
	}
	c.AdvanceTo(t)
	f := c.newFlow()
	*f = Flow{ch: c, tag: tag, group: group, pri: pri, remaining: float64(size), maxRate: maxRate, extra: extra}
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
		if target > t {
			c.progress(t - c.now)
			c.now = t
			return
		}
		c.progress(step)
		if target <= c.now {
			// The delta is below the clock's float64 resolution: the
			// nearest flow is effectively complete right now.
			c.forceDrainNearest()
		}
		c.now = target
		c.reap()
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
	c.progress(step)
	c.forceDrainNearest()
	c.reap()
}

// nextCompletionDelta reports the time until the earliest flow completion at
// current rates. At least one flow must be active.
func (c *Channel) nextCompletionDelta() units.Time {
	min := math.Inf(1)
	for _, f := range c.flows {
		if f.rate <= 0 {
			continue
		}
		remaining := f.remaining
		if remaining < byteEpsilon {
			remaining = byteEpsilon
		}
		d := remaining / float64(f.rate)
		if d < min {
			min = d
		}
	}
	if math.IsInf(min, 1) {
		// All active flows are rate-starved, which cannot happen with a
		// positive-capacity channel and positive max rates.
		panic(fmt.Sprintf("sim: channel %q deadlocked with %d rate-starved flows", c.name, len(c.flows)))
	}
	return units.Time(min)
}

// forceDrainNearest zeroes the remaining bytes of the flow closest to
// completion, breaking sub-resolution stalls.
func (c *Channel) forceDrainNearest() {
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
		c.stats.RateIntegral += nearest.remaining
		nearest.remaining = 0
	}
}

// progress moves every active flow forward by dt at its current rate.
func (c *Channel) progress(dt units.Time) {
	if dt <= 0 {
		return
	}
	for _, f := range c.flows {
		moved := float64(f.rate) * float64(dt)
		if moved > f.remaining {
			moved = f.remaining
		}
		f.remaining -= moved
		c.stats.TotalBytes += moved
		c.stats.RateIntegral += moved
	}
	c.stats.BusyTime += dt
}

// byteEpsilon is the residue below which a flow counts as drained. Flow
// arithmetic accumulates float64 error well under half a byte; treating such
// residues as complete keeps completion deltas representable against the
// channel clock (a sub-attosecond delta would otherwise stall AdvanceTo).
const byteEpsilon = 0.5

// reap removes flows that have drained, stamping their completion times.
func (c *Channel) reap() {
	kept := c.flows[:0]
	for _, f := range c.flows {
		if f.remaining <= byteEpsilon {
			f.remaining = 0
			f.done = true
			f.doneAt = c.now + f.extra
			continue
		}
		kept = append(kept, f)
	}
	c.flows = kept
	c.allocate()
}

// Wait advances the channel until flow f completes and returns the time the
// caller resumes: never earlier than t (the caller's own clock).
func (c *Channel) Wait(t units.Time, f *Flow) units.Time {
	if f.ch != c {
		panic(fmt.Sprintf("sim: flow %q waited on wrong channel %q", f.tag, c.name))
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
	end := t
	for len(c.flows) > 0 {
		c.drained = append(c.drained[:0], c.flows...)
		c.advanceToNextCompletion()
		for _, f := range c.drained {
			if f.done && f.doneAt > end {
				end = f.doneAt
			}
		}
	}
	c.drained = c.drained[:0]
	return end
}

// ActiveFlows reports how many flows are currently in flight.
func (c *Channel) ActiveFlows() int { return len(c.flows) }

// Reset clears flows, clock and statistics, reusing the channel for a fresh
// simulation run. The flow arena is dropped wholesale — callers may still
// hold *Flow pointers from the finished run, so slots are never recycled —
// and scratch buffers release the flow pointers they were caching.
func (c *Channel) Reset() {
	c.flows = nil
	c.now = 0
	c.stats = ChannelStats{}
	c.arena = nil
	c.arenaUsed = 0
	clear(c.members[:cap(c.members)])
	c.members = c.members[:0]
	clear(c.drained[:cap(c.drained)])
	c.drained = c.drained[:0]
	c.pri.flows = nil
}
