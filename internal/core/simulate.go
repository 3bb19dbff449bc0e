package core

import (
	"fmt"

	"github.com/memcentric/mcdla/internal/accel"
	"github.com/memcentric/mcdla/internal/collective"
	"github.com/memcentric/mcdla/internal/dnn"
	"github.com/memcentric/mcdla/internal/sim"
	"github.com/memcentric/mcdla/internal/trace"
	"github.com/memcentric/mcdla/internal/train"
	"github.com/memcentric/mcdla/internal/units"
)

// Breakdown holds the three standalone latency categories of Figure 11.
// They are raw sums — the paper notes their total exceeds the iteration time
// because frameworks overlap computation with synchronization and memory
// virtualization.
type Breakdown struct {
	Compute units.Time
	Sync    units.Time
	Virt    units.Time
}

// Total reports the stacked-bar height.
func (b Breakdown) Total() units.Time { return b.Compute + b.Sync + b.Virt }

// Result is one simulated training iteration of one design point.
type Result struct {
	Design   string
	Workload string
	Strategy train.Strategy
	// Precision is the schedule's number-format policy.
	Precision train.Precision

	// IterationTime is the end-to-end latency of one training iteration on
	// the 8-device node (compute, collectives, and DMAs overlapped).
	IterationTime units.Time

	// Breakdown holds the Figure 11 standalone category sums.
	Breakdown Breakdown

	// VirtTraffic is the per-device backing-store traffic per iteration.
	VirtTraffic units.Bytes
	// SyncTraffic is the per-device collective payload per iteration.
	SyncTraffic units.Bytes

	// HostBytes is the per-device traffic landing in CPU memory (zero for
	// MC-DLA designs and the oracle).
	HostBytes units.Bytes
	// AvgHostSocketBW / MaxHostSocketBW are the Figure 12 per-socket CPU
	// memory bandwidth usage numbers (DevicesPerSocket × per-device rates).
	AvgHostSocketBW units.Bandwidth
	MaxHostSocketBW units.Bandwidth

	// StallVirt is iteration time spent blocked on prefetches (diagnostic).
	StallVirt units.Time
}

// Performance reports 1/time normalized against a reference result
// (typically the oracle): ref.Time / r.Time.
func (r Result) Performance(ref Result) float64 {
	if r.IterationTime <= 0 {
		return 0
	}
	return ref.IterationTime.Seconds() / r.IterationTime.Seconds()
}

// Simulate runs one training iteration of schedule s on design d. The eight
// workers are symmetric (both parallelization strategies give every device
// identical work), so a single device timeline plus shared-channel flows
// reproduces the node's behaviour exactly.
func Simulate(d Design, s *train.Schedule) (Result, error) {
	return SimulateTraced(d, s, nil)
}

// SimulateTraced is Simulate with an optional execution-trace sink: compute
// spans, DMA activity, stalls and collective waits are recorded against the
// device timeline (tr may be nil).
func SimulateTraced(d Design, s *train.Schedule, tr *trace.Log) (Result, error) {
	if err := d.Validate(); err != nil {
		return Result{}, err
	}
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	if d.Workers != s.Workers {
		return Result{}, fmt.Errorf("core: design has %d workers but schedule has %d", d.Workers, s.Workers)
	}

	prep, err := s.Prepared(d.Oracle)
	if err != nil {
		return Result{}, err
	}
	plan := prep.Plan
	virtRate := d.EffectiveVirtBW()

	// Channel layout: MC-DLA designs carry virtualization DMAs and
	// collectives over the same link complex; DC-DLA and HC-DLA use
	// disjoint fabrics.
	var virtCh, syncCh *sim.Channel
	if d.SharedLinks {
		ch := sim.NewChannel("links", d.LinkComplexBW)
		// The DMA engine's link group and the collective rings each top out
		// below the full link complex; group caps keep their aggregates
		// honest while still letting them contend for the shared links.
		ch.SetGroupCap("virt", virtRate)
		ch.SetGroupCap("sync", d.Sync.AggregateBW())
		virtCh, syncCh = ch, ch
	} else {
		capBW := d.VirtBW
		if capBW <= 0 {
			capBW = units.GBps(1) // oracle: unused
		}
		virtCh = sim.NewChannel("host", capBW)
		if s.Workers > 1 {
			syncCh = sim.NewChannel("rings", d.Sync.AggregateBW())
		}
	}

	res := Result{
		Design:    d.Name,
		Workload:  s.Name,
		Strategy:  s.Strategy,
		Precision: s.Precision,
	}

	if tr != nil {
		tr.Label = d.Name + " x " + s.Name
	}
	g := s.Graph
	var t units.Time

	startSync := func(at units.Time, op train.SyncOp) *sim.Flow {
		// A collective with a single participant is a no-op, and
		// single-worker designs without shared links have no collective
		// fabric at all (syncCh is nil) — short-circuit instead of pricing
		// a ring that does not exist or dereferencing a nil channel.
		if s.Workers == 1 || syncCh == nil {
			return nil
		}
		cost := collective.Estimate(op.Op, op.Bytes, d.Sync)
		res.Breakdown.Sync += cost.Latency(d.Sync.AggregateBW())
		res.SyncTraffic += op.Bytes
		return syncCh.StartGroup(at, op.Tag, "sync", cost.WireBytes, d.Sync.AggregateBW(), cost.Fixed)
	}

	// ---- Forward propagation ----
	for _, l := range g.Layers {
		w := s.Work[l.ID]
		ft := LayerFwdTime(d.Device, g, l, w)
		tr.Add(l.Name, "/fwd", trace.Compute, t, t+ft)
		t += ft
		res.Breakdown.Compute += ft

		if !d.Oracle {
			tensors, extra := prep.Offloads[l.ID], plan.ExtraStash[l.ID]
			for _, id := range tensors {
				size := s.StashBytes(plan.Tensors[id].Bytes)
				virtCh.StartGroup(t, "offload", "virt", size, virtRate, 0)
				tr.Add(g.Layer(id).Name, "/offload", trace.Offload, t, t+units.TransferTime(size, virtRate))
				res.VirtTraffic += size
			}
			if extra > 0 {
				size := s.StashBytes(extra)
				virtCh.StartGroup(t, "offload", "virt", size, virtRate, 0)
				tr.Add(l.Name, "/offload-state", trace.Offload, t, t+units.TransferTime(size, virtRate))
				res.VirtTraffic += size
			}
		}
		for _, op := range w.FwdSync {
			f := startSync(t, op)
			if f == nil {
				continue
			}
			done := syncCh.Wait(t, f)
			tr.Add(l.Name, "/"+op.Op.String(), trace.SyncWait, t, done)
			t = done
		}
	}

	// ---- Backward propagation (reverse topological order) ----
	//
	// Prefetches run as a FIFO pipeline over the plan's deduplicated queue:
	// the DMA engine fetches each stash tensor exactly once, ordered by first
	// backward use, so a transfer is always in flight underneath the backward
	// computation (the vDNN/LMS performance-aware overlap of §IV) and a
	// tensor shared by several backward consumers moves once and stays
	// resident. The device stalls only when the channel falls behind the
	// compute.
	type inflight struct {
		flow   *sim.Flow
		issued units.Time
		traced bool
	}
	sched := prep.Sched
	queue := sched.Items
	fetched := make([]inflight, len(queue))
	// The pipeline issues whole per-layer groups: all items first needed at
	// the same backward step enter the channel together, so the lookahead
	// unit matches the old per-layer blob and a transfer is in flight during
	// the preceding layers' compute.
	next := 0
	issueNextGroup := func(at units.Time) {
		if d.Oracle || next >= len(queue) {
			return
		}
		layer := queue[next].Layer
		for next < len(queue) && queue[next].Layer == layer {
			bytes := s.StashBytes(queue[next].Bytes)
			fetched[next] = inflight{flow: virtCh.StartGroup(at, "prefetch", "virt", bytes, virtRate, 0), issued: at}
			res.VirtTraffic += bytes
			next++
		}
	}
	recomputed := make(map[int]bool)
	var pending []*sim.Flow

	last := len(g.Layers) - 1
	issueNextGroup(t)
	for id := last; id >= 0; id-- {
		if items := sched.NeededAt(id); len(items) > 0 && !d.Oracle {
			// Force the FIFO through everything this layer needs, then block
			// on the transfers (already-landed shared tensors wait for free).
			for next <= sched.MaxNeededAt(id) {
				issueNextGroup(t)
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
			// The DMA engine starts the next queued group immediately.
			issueNextGroup(t)
		}
		// Recompute cheap producers whose outputs were not stashed.
		for _, rid := range prep.Recompute[id] {
			if recomputed[rid] {
				continue
			}
			recomputed[rid] = true
			rl := g.Layer(rid)
			rt := LayerFwdTime(d.Device, g, rl, s.Work[rid])
			tr.Add(rl.Name, "/recompute", trace.Recompute, t, t+rt)
			t += rt
			res.Breakdown.Compute += rt
		}
		l := g.Layer(id)
		bt := LayerBwdTime(d.Device, g, l, s.Work[id])
		res.Breakdown.Compute += bt

		// Backward runs two independent GEMMs: dX = dY·Wᵀ first (its result
		// feeds the blocking dX all-reduce under model parallel), then
		// dW = Xᵀ·dY, which overlaps with the collective in flight.
		ops := s.Work[id].BwdSync
		if len(ops) > 0 && ops[0].Blocking {
			tr.Add(l.Name, "/bwd", trace.Compute, t, t+bt)
			t += bt / 2 // dX GEMM
			var flows []*sim.Flow
			for _, op := range ops {
				if f := startSync(t, op); f != nil {
					flows = append(flows, f)
				}
			}
			t += bt / 2 // dW GEMM, concurrent with the reduction
			waitFrom := t
			for _, f := range flows {
				t = syncCh.Wait(t, f)
			}
			tr.Add(l.Name, "/dX-reduce", trace.SyncWait, waitFrom, t)
		} else {
			tr.Add(l.Name, "/bwd", trace.Compute, t, t+bt)
			t += bt
			for _, op := range ops {
				f := startSync(t, op)
				if f == nil {
					continue
				}
				if op.Blocking {
					t = syncCh.Wait(t, f)
				} else {
					pending = append(pending, f)
				}
			}
		}
	}

	// ---- Iteration end: overlapped collectives and DMAs must land ----
	end := t
	for _, f := range pending {
		done := syncCh.Wait(end, f)
		if done > end {
			end = done
		}
	}
	tr.Add("tail/dW-reductions", "", trace.SyncWait, t, end)
	if !d.Oracle {
		if drained := virtCh.Drain(end); drained > end {
			end = drained
		}
	}
	res.IterationTime = end

	// Standalone virtualization latency for the Figure 11 stack: the DMA
	// time of the whole traffic at the design's nominal policy bandwidth.
	res.Breakdown.Virt = units.TransferTime(res.VirtTraffic, d.VirtBW)
	if d.Oracle {
		res.Breakdown.Virt = 0
	}

	// Figure 12 accounting.
	if d.HostInterface && !d.Oracle {
		res.HostBytes = res.VirtTraffic
		devs := d.DevicesPerSocket
		if d.Workers < devs {
			devs = d.Workers
		}
		if end > 0 {
			res.AvgHostSocketBW = units.Bandwidth(float64(res.HostBytes) * float64(devs) / end.Seconds())
		}
		res.MaxHostSocketBW = units.Bandwidth(float64(virtCh.Stats().PeakRate) * float64(devs))
	}
	if tr != nil {
		tr.Fills += virtCh.Stats().Fills
		if syncCh != nil && syncCh != virtCh {
			tr.Fills += syncCh.Stats().Fills
		}
	}
	return res, nil
}

// MustSimulate is Simulate for experiment harnesses with static configs.
func MustSimulate(d Design, s *train.Schedule) Result {
	r, err := Simulate(d, s)
	if err != nil {
		panic(err)
	}
	return r
}

// LayerFwdTime estimates the device's forward latency for its shard of the
// layer (full layer under data parallel, an output slice under model
// parallel; elementwise layers run replicated on gathered tensors).
func LayerFwdTime(dev accel.Config, g *dnn.Graph, l *dnn.Layer, w train.LayerWork) units.Time {
	if l.Kind == dnn.Input {
		return 0
	}
	if len(w.GEMMs) > 0 {
		weightBytes := w.WeightBytes
		if g.Timesteps > 1 {
			// Recurrent weight matrices are resident across the sequence:
			// the double-buffered PE-array SRAM tiles them with
			// inter-timestep reuse, so HBM weight traffic amortizes over
			// the timesteps instead of re-streaming 8h² every step. This
			// matches the paper's compute-limited device model for RNNs
			// (§IV: "high data locality with highly deterministic
			// dataflow").
			weightBytes /= int64(g.Timesteps)
		}
		hbm := w.InputBytes + weightBytes + w.OutputBytes
		var ewElems int64
		if l.EwOps > 0 && len(l.GEMMs) > 0 && l.GEMMs[0].N > 0 {
			frac := float64(w.GEMMs[0].N) / float64(l.GEMMs[0].N)
			ewElems = int64(float64(l.Out.Elems()) * frac)
		}
		return dev.WorkTime(w.GEMMs, hbm, ewElems, l.EwOps)
	}
	return dev.WorkTime(nil, 0, l.Out.Elems(), l.EwOps)
}

// LayerBwdTime is the standard 2× backward estimate (dX and dW GEMMs).
func LayerBwdTime(dev accel.Config, g *dnn.Graph, l *dnn.Layer, w train.LayerWork) units.Time {
	if l.Kind == dnn.Input {
		return 0
	}
	return units.Time(accel.BackwardFactor * float64(LayerFwdTime(dev, g, l, w)))
}
