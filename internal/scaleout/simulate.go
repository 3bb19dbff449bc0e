package scaleout

import (
	"fmt"

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
// on a channel plus the lap's fixed (α and pipeline-fill) latency. Its trace
// span is named span+tag ("sync/dW-rs", "inter/dW").
type flowStage struct {
	ch      *sim.Channel
	span    string
	tag     string
	group   string
	cat     trace.Category
	bytes   units.Bytes
	maxRate units.Bandwidth
	fixed   units.Time
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
	stages []flowStage
	st     flowStage // the lap in flight
	cur    *sim.Flow
	tr     *trace.Log
	issued units.Time
}

func (so *stagedOp) issueNext(t units.Time) {
	if len(so.stages) == 0 {
		so.cur = nil
		return
	}
	st := so.stages[0]
	so.stages = so.stages[1:]
	for i := 0; i < st.siblings; i++ {
		st.ch.StartGroup(t, st.tag, st.group, st.bytes, st.maxRate, st.fixed)
	}
	so.cur = st.ch.StartGroup(t, st.tag, st.group, st.bytes, st.maxRate, st.fixed)
	so.st, so.issued = st, t
}

// pump advances the collective without blocking the caller: channels are
// drained up to the device clock, and any lap that has already landed hands
// off to its successor at its own completion time. Called at backward layer
// boundaries so the uplink carries shard rings while the device computes,
// instead of all later laps queueing behind the iteration-end drain.
func (so *stagedOp) pump(at units.Time) {
	for so.cur != nil {
		so.st.ch.AdvanceTo(at)
		if !so.cur.Done() {
			return
		}
		done := so.cur.DoneAt()
		so.tr.Add(so.st.span, so.st.tag, so.st.cat, so.issued, done)
		so.issueNext(done)
	}
}

// drain runs the remaining stages to completion and returns the caller's
// resume time (≥ t).
func (so *stagedOp) drain(t units.Time) units.Time {
	resume := t
	for so.cur != nil {
		resume = so.st.ch.Wait(t, so.cur)
		done := so.cur.DoneAt()
		so.tr.Add(so.st.span, so.st.tag, so.st.cat, so.issued, done)
		so.issueNext(done)
	}
	return resume
}

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
		s, err = buildSchedule(workload, globalBatch, devices, train.DataParallel)
	case Hybrid:
		if globalBatch%p.SystemNodes != 0 {
			return SimResult{}, fmt.Errorf("scaleout: batch %d not divisible by %d chassis", globalBatch, p.SystemNodes)
		}
		s, err = buildSchedule(workload, globalBatch/p.SystemNodes, p.DevicesPerNode, train.ModelParallel)
	default:
		return SimResult{}, fmt.Errorf("scaleout: unknown plane strategy %v", strategy)
	}
	if err != nil {
		return SimResult{}, err
	}
	g := s.Graph

	// Channel layout. The representative device owns a LinksPerDevice×LinkBW
	// complex into the chassis crossbar; local ring laps and (on the
	// MC-plane) virtualization DMAs contend there under group caps, exactly
	// like the single-node MC-DLA designs. The DC-plane's PCIe path is a
	// disjoint fabric, as in core's non-shared-link layout.
	links := sim.NewChannel("switch", p.DeviceLinkBW())
	intra := p.intraConfig()
	localSyncBW := intra.AggregateBW()
	if localSyncBW > p.DeviceLinkBW() {
		localSyncBW = p.DeviceLinkBW()
	}
	if p.DevicesPerNode > 1 {
		links.SetGroupCap("sync", localSyncBW)
	}
	virtCh := links
	if memCentric {
		// Memory-node delivery bandwidth (shared across the chassis's
		// devices) caps the DMA engine's aggregate.
		links.SetGroupCap("virt", virtRate)
	} else {
		virtCh = sim.NewChannel("host", virtRate)
	}
	var uplink *sim.Channel
	if p.SystemNodes > 1 {
		uplink = sim.NewChannel("uplink", p.UplinkBW)
	}

	res := SimResult{Devices: devices, Strategy: strategy}
	if tr != nil {
		tr.Label = fmt.Sprintf("plane(%d nodes) x %s (%v)", p.SystemNodes, workload, strategy)
	}

	// localStage builds the chassis-ring lap for op; interStage builds the
	// uplink shard-ring lap with the sibling ranks' contention flows.
	localStage := func(op collective.Op, size units.Bytes, tag string) flowStage {
		cost := collective.Estimate(op, size, intra)
		return flowStage{
			ch: links, span: "sync/", tag: tag, group: "sync", cat: trace.SyncWait,
			bytes: cost.WireBytes, maxRate: localSyncBW, fixed: cost.Fixed,
		}
	}
	interStage := func(size units.Bytes, tag string) flowStage {
		cost := collective.Estimate(collective.AllReduce, size, p.interConfig())
		return flowStage{
			ch: uplink, span: "inter/", tag: tag, group: "inter", cat: trace.InterSync,
			bytes: cost.WireBytes, maxRate: p.UplinkBW, fixed: cost.Fixed,
			siblings: p.DevicesPerNode - 1,
		}
	}

	// dwStages decomposes a data-parallel dW all-reduce over the full plane
	// into the standard hierarchy. With one chassis it degenerates to the
	// local ring; with one device per chassis the local laps vanish.
	dwStages := func(size units.Bytes) []flowStage {
		if p.SystemNodes == 1 {
			if p.DevicesPerNode == 1 {
				return nil // a single device has nobody to reduce with
			}
			return []flowStage{localStage(collective.AllReduce, size, "dW")}
		}
		shard := units.Bytes(float64(size)/float64(p.DevicesPerNode) + 0.5)
		if p.DevicesPerNode == 1 {
			return []flowStage{interStage(shard, "dW")}
		}
		return []flowStage{
			localStage(collective.ReduceScatter, size, "dW-rs"),
			interStage(shard, "dW"),
			localStage(collective.AllGather, size, "dW-ag"),
		}
	}

	// standalone prices the stages back to back, uncontended — the Figure 11
	// category sum the first-order estimator reports.
	standalone := func(stages []flowStage) units.Time {
		var total units.Time
		for _, st := range stages {
			total += units.TransferTime(st.bytes, st.maxRate) + st.fixed
		}
		return total
	}

	newStaged := func(stages []flowStage, at units.Time) *stagedOp {
		res.Sync += standalone(stages)
		for _, st := range stages {
			if st.ch == uplink {
				res.UplinkBytes += units.Bytes(int64(st.bytes) * int64(1+st.siblings))
			}
		}
		so := &stagedOp{stages: stages, tr: tr}
		so.issueNext(at)
		return so
	}

	// Hybrid: one dW all-reduce per weight group across the chassis
	// replicas, issued when backward passes the group's earliest layer
	// (mirroring the data-parallel schedule builder's dedup of shared
	// recurrent weights). The per-device shard is already 1/DevicesPerNode.
	hybridDW := map[int]units.Bytes{}
	if strategy == Hybrid && p.SystemNodes > 1 {
		seen := map[string]bool{}
		for _, l := range g.Layers {
			if l.WeightGroup == "" || seen[l.WeightGroup] {
				continue
			}
			seen[l.WeightGroup] = true
			if b := s.Work[l.ID].WeightBytes; b > 0 {
				hybridDW[l.ID] = units.Bytes(b)
			}
		}
	}

	prep, err := s.Prepared(false)
	if err != nil {
		return SimResult{}, err
	}
	plan := prep.Plan

	var t units.Time
	var pendingStaged []*stagedOp

	// blockingLocal runs a chassis collective inline (hybrid feature-map
	// gathers and dX reductions). With one device per chassis there is no
	// local ring and the op is a no-op. The staged op itself records no
	// trace span — the caller adds the descriptive one, and two spans over
	// the same interval would double-count sync time in trace.Summary.
	blockingLocal := func(at units.Time, op train.SyncOp) units.Time {
		if p.DevicesPerNode == 1 {
			return at
		}
		stages := []flowStage{localStage(op.Op, op.Bytes, op.Tag)}
		res.Sync += standalone(stages)
		so := &stagedOp{stages: stages}
		so.issueNext(at)
		return so.drain(at)
	}

	// ---- Forward propagation ----
	for _, l := range g.Layers {
		w := s.Work[l.ID]
		ft := core.LayerFwdTime(p.Device, g, l, w)
		tr.Add(l.Name, "/fwd", trace.Compute, t, t+ft)
		t += ft
		res.Compute += ft

		tensors, extra := prep.Offloads[l.ID], plan.ExtraStash[l.ID]
		for _, id := range tensors {
			size := s.StashBytes(plan.Tensors[id].Bytes)
			virtCh.StartGroup(t, "offload", "virt", size, virtRate, 0)
			tr.Add(g.Layer(id).Name, "/offload", trace.Offload, t, t+units.TransferTime(size, virtRate))
			res.Virt += units.TransferTime(size, virtRate)
		}
		if extra > 0 {
			size := s.StashBytes(extra)
			virtCh.StartGroup(t, "offload", "virt", size, virtRate, 0)
			tr.Add(l.Name, "/offload-state", trace.Offload, t, t+units.TransferTime(size, virtRate))
			res.Virt += units.TransferTime(size, virtRate)
		}
		for _, op := range w.FwdSync {
			done := blockingLocal(t, op)
			tr.Add(l.Name, "/"+op.Op.String(), trace.SyncWait, t, done)
			t = done
		}
	}

	// ---- Backward propagation (reverse topological order) ----
	type inflight struct {
		flow   *sim.Flow
		issued units.Time
		traced bool
	}
	// The DMA engine keeps a queue of prefetches in flight (the vDNN/LMS
	// performance-aware overlap, §IV): a one-deep pipeline would idle the
	// channel between a prefetch landing and the device reaching the next
	// layer boundary, which the first-order estimator's max(compute, virt)
	// overlap never charges for. The queue is the plan's deduplicated
	// schedule — each stash tensor moves exactly once, at its first backward
	// use, and stays resident for later consumers. Demand order is preserved
	// with priority classes — the earliest-needed stash (largest layer ID
	// during backward) outranks lookahead, so queue depth buys channel
	// utilization without delaying the critical prefetch. The queue refills
	// at every backward layer boundary; in-flight flows are counted lazily by
	// advancing the channel to the device clock.
	const prefetchDepth = 8
	sched := prep.Sched
	queue := sched.Items
	fetched := make([]inflight, len(queue))
	next := 0
	var outstanding []*sim.Flow
	issueItem := func(at units.Time) {
		it := queue[next]
		bytes := s.StashBytes(it.Bytes)
		f := virtCh.StartGroupPriority(at, "prefetch", "virt", bytes, virtRate, 0, 1+it.Layer)
		fetched[next] = inflight{flow: f, issued: at}
		res.Virt += units.TransferTime(bytes, virtRate)
		outstanding = append(outstanding, f)
		next++
	}
	fillPrefetchQueue := func(at units.Time) {
		virtCh.AdvanceTo(at)
		kept := outstanding[:0]
		for _, f := range outstanding {
			if !f.Done() {
				kept = append(kept, f)
			}
		}
		outstanding = kept
		for len(outstanding) < prefetchDepth && next < len(queue) {
			issueItem(at)
		}
	}
	recomputed := make(map[int]bool)

	pumpStaged := func(at units.Time) {
		for _, so := range pendingStaged {
			so.pump(at)
		}
	}

	fillPrefetchQueue(t)
	for id := len(g.Layers) - 1; id >= 0; id-- {
		fillPrefetchQueue(t)
		pumpStaged(t)
		if items := sched.NeededAt(id); len(items) > 0 {
			for next <= sched.MaxNeededAt(id) {
				issueItem(t)
			}
			stallFrom := t
			for _, i := range items {
				f := &fetched[i]
				t = virtCh.Wait(t, f.flow)
				if tr != nil && !f.traced {
					f.traced = true
					tr.Add(sched.ItemName(i), "/prefetch", trace.Prefetch, f.issued, f.flow.DoneAt())
				}
			}
			tr.Add(g.Layer(id).Name, "/stall", trace.Stall, stallFrom, t)
			res.StallVirt += t - stallFrom
			fillPrefetchQueue(t)
		}
		for _, rid := range prep.Recompute[id] {
			if recomputed[rid] {
				continue
			}
			recomputed[rid] = true
			rl := g.Layer(rid)
			rt := core.LayerFwdTime(p.Device, g, rl, s.Work[rid])
			tr.Add(rl.Name, "/recompute", trace.Recompute, t, t+rt)
			t += rt
			res.Compute += rt
		}
		l := g.Layer(id)
		bt := core.LayerBwdTime(p.Device, g, l, s.Work[id])
		res.Compute += bt
		tr.Add(l.Name, "/bwd", trace.Compute, t, t+bt)

		ops := s.Work[id].BwdSync
		if len(ops) > 0 && ops[0].Blocking {
			// Hybrid dX discipline: the dX GEMM's result feeds the blocking
			// reduction; the dW GEMM overlaps with it.
			t += bt / 2
			waitFrom := t + bt/2
			reduceFrom := t
			t += bt / 2
			for _, op := range ops {
				t = units.MaxTime(t, blockingLocal(reduceFrom, op))
			}
			tr.Add(l.Name, "/dX-reduce", trace.SyncWait, waitFrom, t)
		} else {
			t += bt
			for _, op := range ops {
				// Data-parallel dW: the hierarchical collective trails the
				// backward pass, its local lap contending with prefetches on
				// the switch links.
				pendingStaged = append(pendingStaged, newStaged(dwStages(op.Bytes), t))
			}
		}
		if shard, ok := hybridDW[id]; ok {
			pendingStaged = append(pendingStaged, newStaged([]flowStage{interStage(shard, "dW")}, t))
		}
	}

	// ---- Iteration end: staged collectives and DMAs must land ----
	// Each op drains from the backward end, not from the previous op's
	// finish: chains advance independently and only genuine channel
	// contention — never the drain order — serializes them.
	end := t
	for _, so := range pendingStaged {
		if done := so.drain(t); done > end {
			end = done
		}
	}
	if drained := virtCh.Drain(end); drained > end {
		end = drained
	}
	if drained := links.Drain(end); drained > end {
		end = drained
	}
	if uplink != nil {
		if drained := uplink.Drain(end); drained > end {
			end = drained
		}
	}
	res.Iteration = end
	res.SwitchBusy = links.Stats().BusyTime
	if uplink != nil {
		res.UplinkBusy = uplink.Stats().BusyTime
	}
	return res, nil
}
