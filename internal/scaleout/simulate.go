package scaleout

import (
	"fmt"
	"slices"
	"sync"

	"github.com/memcentric/mcdla/internal/collective"
	"github.com/memcentric/mcdla/internal/core"
	"github.com/memcentric/mcdla/internal/sim"
	"github.com/memcentric/mcdla/internal/trace"
	"github.com/memcentric/mcdla/internal/train"
	"github.com/memcentric/mcdla/internal/units"
)

// Strategy selects how the plane parallelizes a workload.
type Strategy int

const (
	// DataParallel trains data-parallel across every device in the plane:
	// the global batch splits plane-wide and the dW gradients cross the full
	// hierarchy (chassis-local reduce-scatter, inter-node shard rings over
	// the uplinks, chassis-local all-gather).
	DataParallel Strategy = iota
	// Hybrid trains model-parallel within each chassis (the Krizhevsky-style
	// output sharding of the train package across the DevicesPerNode
	// switch-attached devices) and data-parallel across chassis: feature-map
	// collectives stay on the chassis switch while the already-sharded dW
	// gradients all-reduce directly over the uplink rings.
	Hybrid
)

func (s Strategy) String() string {
	switch s {
	case DataParallel:
		return "data-parallel"
	case Hybrid:
		return "hybrid"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// SimResult is one event-driven plane simulation of a training iteration.
type SimResult struct {
	Devices  int
	Strategy Strategy
	// Iteration is the end-to-end latency with compute, virtualization DMAs
	// and the staged hierarchical collectives genuinely overlapped — the
	// plane-level analogue of core.Result.IterationTime.
	Iteration units.Time
	// Compute / Virt / Sync are the standalone category sums under the
	// Figure 11 discipline, directly comparable to IterationEstimate.
	Compute units.Time
	Virt    units.Time
	Sync    units.Time
	// StallVirt is device time blocked on prefetches.
	StallVirt units.Time
	// SwitchBusy / UplinkBusy are the channels' busy times. UplinkBytes is
	// the per-chassis traffic crossing the uplink — every local rank's ring
	// stream, which is DevicesPerNode× what the first-order estimator
	// charged for its single inter-node ring.
	SwitchBusy  units.Time
	UplinkBusy  units.Time
	UplinkBytes units.Bytes
}

// flowStage is one lap of a staged hierarchical collective: a bandwidth flow
// in a channel group plus the lap's fixed (α and pipeline-fill) latency. Its
// trace span is named span+tag ("sync/dW-rs", "inter/dW").
type flowStage struct {
	g         sim.Group
	span, tag string
	cat       trace.Category
	bytes     units.Bytes
	fixed     units.Time
	// siblings is how many symmetric flows the chassis's other device ranks
	// contribute to the same channel at the same instant. The inter-node
	// stage sets it to DevicesPerNode−1: every rank runs its own shard ring,
	// and all of them contend for the one uplink.
	siblings int
}

// stagedOp advances a hierarchical collective lap by lap: stage k+1 is issued
// when stage k's flow (including its fixed tail) completes, so later laps see
// the channel state their predecessors left behind.
type stagedOp struct {
	laps [3]flowStage // at most reduce-scatter, inter-node ring, all-gather
	// n laps are in use; laps[next-1] is in flight.
	n, next int
	cur     sim.Flow // the lap in flight; the zero Flow once every lap has landed
	tr      *trace.Log
	issued  units.Time
}

func (so *stagedOp) issueNext(t units.Time) {
	if so.next == so.n {
		so.cur = sim.Flow{}
		return
	}
	st := &so.laps[so.next]
	so.next++
	for range 1 + st.siblings { // the siblings' flows, then the op's own
		so.cur = st.g.Channel().Start(t, st.g, st.bytes, st.fixed, 0)
	}
	so.issued = t
}

// land records the lap in flight, which finished at its flow's completion,
// and issues its successor then.
func (so *stagedOp) land() {
	st, done := &so.laps[so.next-1], so.cur.DoneAt()
	so.tr.Add(st.span, st.tag, st.cat, so.issued, done)
	so.issueNext(done)
}

// pump advances the collective without blocking the caller: channels are
// drained up to the device clock, and any lap that has already landed hands
// off to its successor at its own completion time. Called at backward layer
// boundaries so the uplink carries shard rings while the device computes,
// instead of all later laps queueing behind the iteration-end drain.
func (so *stagedOp) pump(at units.Time) {
	for so.cur != (sim.Flow{}) {
		so.laps[so.next-1].g.Channel().AdvanceTo(at)
		if !so.cur.Done() {
			return
		}
		so.land()
	}
}

// drain runs the remaining stages to completion and returns the caller's
// resume time (≥ t).
func (so *stagedOp) drain(t units.Time) units.Time {
	resume := t
	for so.cur != (sim.Flow{}) {
		resume = so.laps[so.next-1].g.Channel().Wait(t, so.cur)
		so.land()
	}
	return resume
}

// prefetchWindow is the plane's prefetch policy (core.Iteration.Window):
// the DMA engine keeps this many prioritised items in flight.
const prefetchWindow = 8

// Simulate runs one training iteration of the workload on the plane with the
// event-driven engine: one representative device per system node executes the
// schedule while its DMAs and collective laps become flows on shared
// channels — the chassis switch link complex (virtualization and local ring
// phases contending under group caps) and the system node's uplink (all
// local ranks' inter-node shard rings contending for its capacity).
func (p Plane) Simulate(workload string, globalBatch int, memCentric bool, strategy Strategy) (SimResult, error) {
	return p.SimulateTraced(workload, globalBatch, memCentric, strategy, nil)
}

// SimulateTraced is Simulate with an optional execution-trace sink (tr may
// be nil). Uplink collective laps are recorded as trace.InterSync spans.
func (p Plane) SimulateTraced(workload string, globalBatch int, memCentric bool, strategy Strategy, tr *trace.Log) (SimResult, error) {
	return p.simulate(workload, globalBatch, memCentric, strategy, prefetchWindow, tr)
}

// simulate is SimulateTraced under the given prefetch window (0: core's
// whole-group FIFO).
func (p Plane) simulate(workload string, globalBatch int, memCentric bool, strategy Strategy, window int, tr *trace.Log) (SimResult, error) {
	if err := p.Validate(); err != nil {
		return SimResult{}, err
	}
	virtRate := p.HostBW
	if memCentric {
		if err := p.validateMemCentric(); err != nil {
			return SimResult{}, err
		}
		virtRate = p.VirtBW()
	}
	devices := p.TotalDevices()
	if globalBatch%devices != 0 {
		return SimResult{}, fmt.Errorf("scaleout: batch %d not divisible by %d devices", globalBatch, devices)
	}

	var s *train.Schedule
	var err error
	switch strategy {
	case DataParallel:
		s, err = p.schedule(workload, globalBatch, devices, train.DataParallel)
	case Hybrid:
		if globalBatch%p.SystemNodes != 0 {
			return SimResult{}, fmt.Errorf("scaleout: batch %d not divisible by %d chassis", globalBatch, p.SystemNodes)
		}
		s, err = p.schedule(workload, globalBatch/p.SystemNodes, p.DevicesPerNode, train.ModelParallel)
	default:
		return SimResult{}, fmt.Errorf("scaleout: unknown plane strategy %v", strategy)
	}
	if err != nil {
		return SimResult{}, err
	}
	prep, err := s.Prepared(false)
	if err != nil {
		return SimResult{}, err
	}

	// Channel layout. The representative device owns a LinksPerDevice×LinkBW
	// complex into the chassis crossbar; local ring laps and (on the
	// MC-plane) virtualization DMAs contend there in shared groups, exactly
	// like the single-node MC-DLA designs. The DC-plane's PCIe path is a
	// disjoint fabric, as in core's non-shared-link layout.
	sc := scratchPool.Get().(*scratch)
	e := &sc.e
	*e = stagedSync{p: p, tr: tr, intra: p.intraConfig(), pending: e.pending[:0]}
	e.links = sim.NewChannel("switch", p.DeviceLinkBW())
	if p.DevicesPerNode > 1 {
		e.ring = e.links.Group(min(e.intra.AggregateBW(), p.DeviceLinkBW()), true)
	}
	var virt sim.Group
	if memCentric {
		// Memory-node delivery bandwidth (shared across the chassis's
		// devices) caps the DMA engine's aggregate.
		virt = e.links.Group(virtRate, true)
	} else {
		virt = sim.NewChannel("host", virtRate).Group(virtRate, false)
	}
	if p.SystemNodes > 1 {
		e.uplink = sim.NewChannel("uplink", p.UplinkBW).Group(p.UplinkBW, false)
	}
	if tr != nil {
		tr.Label = fmt.Sprintf("plane(%d nodes) x %s (%v)", p.SystemNodes, workload, strategy)
	}

	// Hybrid: one dW all-reduce per weight group across the chassis
	// replicas, issued when backward passes the group's earliest layer
	// (mirroring the data-parallel schedule builder's dedup of shared
	// recurrent weights).
	if strategy == Hybrid && p.SystemNodes > 1 {
		e.hybridDW = s
	}

	// Each weight group stages at most one overlapped op: its dW reduction
	// under data parallel, its uplink reduction under Hybrid. Sizing the
	// table up front costs one allocation when the pooled scratch set is
	// new, where appends would grow it by doubling.
	e.pending = slices.Grow(e.pending, s.WeightGroups())

	it := &sc.it
	it.Device, it.Sched, it.Prep, it.Virt, it.Window, it.Trace = p.Device, s, prep, virt, window, tr
	it.Run(e)

	res := SimResult{
		Devices: devices, Strategy: strategy, Iteration: it.End,
		Compute: it.Compute, Virt: it.VirtTime, Sync: e.sync, StallVirt: it.StallVirt,
		SwitchBusy: e.links.Stats().BusyTime, UplinkBytes: e.uplinkBytes,
	}
	uplink := e.uplink.Channel()
	if uplink != nil {
		res.UplinkBusy = uplink.Stats().BusyTime
	}
	tr.Tally(e.links.Stats())
	if virtCh := virt.Channel(); virtCh != e.links {
		tr.Tally(virtCh.Stats())
	}
	if uplink != nil {
		tr.Tally(uplink.Stats())
	}
	sc.release()
	return res, nil
}

// scratch is a plane simulation's working storage: the kernel with its
// prefetch table and the staged sync with its pending ops, and through
// them the channels. simulate takes one from scratchPool and puts it back,
// so the tables keep the capacity earlier simulations grew; a pointer in
// the pool, unlike a slice, costs no allocation per Put.
type scratch struct {
	it core.Iteration
	e  stagedSync
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// release hands back the channels, empties the scratch set, keeping its
// tables' capacity and pinning no schedule or trace, and puts it back in
// the pool.
func (sc *scratch) release() {
	e := &sc.e
	if virt := sc.it.Virt.Channel(); virt != e.links {
		virt.Release()
	}
	e.links.Release()
	if uplink := e.uplink.Channel(); uplink != nil {
		uplink.Release()
	}
	clear(e.pending)
	*e = stagedSync{pending: e.pending[:0]}
	sc.it.Sched, sc.it.Prep, sc.it.Virt, sc.it.Trace = nil, nil, sim.Group{}, nil
	scratchPool.Put(sc)
}

// stagedSync prices the plane's collectives as staged hierarchical ops:
// chassis-ring laps on the switch links, and inter-node shard rings on the
// uplink carrying every local rank's flow.
type stagedSync struct {
	p            Plane
	links        *sim.Channel
	ring, uplink sim.Group // chassis-ring laps; inter-node shard rings
	intra        collective.Config
	tr           *trace.Log
	// hybridDW is the schedule under Hybrid across chassis, nil otherwise:
	// each weight group's lead layer all-reduces its dW over the uplink.
	hybridDW    *train.Schedule
	pending     []stagedOp
	sync        units.Time
	uplinkBytes units.Bytes
}

// local builds the chassis-ring lap for op.
func (e *stagedSync) local(op collective.Op, size units.Bytes, tag string) flowStage {
	cost := collective.Estimate(op, size, e.intra)
	return flowStage{
		g: e.ring, span: "sync/", tag: tag, cat: trace.SyncWait,
		bytes: cost.WireBytes, fixed: cost.Fixed,
	}
}

// inter builds the uplink shard-ring lap with the sibling ranks' contention
// flows.
func (e *stagedSync) inter(size units.Bytes, tag string) flowStage {
	cost := collective.Estimate(collective.AllReduce, size, e.p.interConfig())
	return flowStage{
		g: e.uplink, span: "inter/", tag: tag, cat: trace.InterSync,
		bytes: cost.WireBytes, fixed: cost.Fixed,
		siblings: e.p.DevicesPerNode - 1,
	}
}

// issue builds a staged op from laps and issues its first lap at t. The sync
// tally takes the laps priced back to back, uncontended — the Figure 11
// category sum the first-order estimator reports.
func (e *stagedSync) issue(t units.Time, tr *trace.Log, laps ...flowStage) stagedOp {
	so := stagedOp{n: len(laps), tr: tr}
	var standalone units.Time
	for i, st := range laps {
		so.laps[i] = st
		standalone += units.TransferTime(st.bytes, st.g.Rate()) + st.fixed
		if st.g == e.uplink {
			e.uplinkBytes += units.Bytes(int64(st.bytes) * int64(1+st.siblings))
		}
	}
	e.sync += standalone
	so.issueNext(t)
	return so
}

// stage issues an overlapped staged op at t; it lands at the iteration end.
func (e *stagedSync) stage(t units.Time, laps ...flowStage) {
	e.pending = append(e.pending, e.issue(t, e.tr, laps...))
}

// Blocking runs a chassis collective inline (hybrid feature-map gathers and
// dX reductions). With one device per chassis there is no local ring and
// the op is a no-op. The staged op itself records no trace span — the
// kernel adds the descriptive one, and two spans over the same interval
// would double-count sync time in trace.Summary.
func (e *stagedSync) Blocking(issue, resume units.Time, op train.SyncOp) units.Time {
	if e.p.DevicesPerNode == 1 {
		return resume
	}
	so := e.issue(issue, nil, e.local(op.Op, op.Bytes, op.Tag))
	return units.MaxTime(resume, so.drain(issue))
}

// Overlapped decomposes a data-parallel dW all-reduce over the full plane
// into the standard hierarchy, its local laps contending with prefetches on
// the switch links. With one chassis it degenerates to the local ring; with
// one device per chassis the local laps vanish. Under Hybrid, a weight
// group's earliest layer also issues its uplink all-reduce.
func (e *stagedSync) Overlapped(id int, t units.Time, ops []train.SyncOp) {
	p := e.p
	for _, op := range ops {
		shard := units.Bytes(float64(op.Bytes)/float64(p.DevicesPerNode) + 0.5)
		switch {
		case p.SystemNodes == 1 && p.DevicesPerNode == 1:
			// A single device has nobody to reduce with.
		case p.SystemNodes == 1:
			e.stage(t, e.local(collective.AllReduce, op.Bytes, "dW"))
		case p.DevicesPerNode == 1:
			e.stage(t, e.inter(shard, "dW"))
		default:
			e.stage(t, e.local(collective.ReduceScatter, op.Bytes, "dW-rs"), e.inter(shard, "dW"), e.local(collective.AllGather, op.Bytes, "dW-ag"))
		}
	}
	if s := e.hybridDW; s != nil && s.Graph.Layer(id).GroupLead() {
		// The per-device shard is already 1/DevicesPerNode.
		if b := s.Work(id).WeightBytes; b > 0 {
			e.stage(t, e.inter(units.Bytes(b), "dW"))
		}
	}
}

// Boundary pumps the staged ops in flight.
func (e *stagedSync) Boundary(t units.Time) {
	for i := range e.pending {
		e.pending[i].pump(t)
	}
}

// Drain lands the staged ops. Each drains from the backward end, not from
// the previous op's finish: chains advance independently and only genuine
// channel contention — never the drain order — serializes them.
func (e *stagedSync) Drain(t units.Time) units.Time {
	end := t
	for i := range e.pending {
		if done := e.pending[i].drain(t); done > end {
			end = done
		}
	}
	end = e.links.Drain(end)
	if uplink := e.uplink.Channel(); uplink != nil {
		end = uplink.Drain(end)
	}
	return end
}
