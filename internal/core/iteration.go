package core

import (
	"slices"
	"sync/atomic"

	"github.com/memcentric/mcdla/internal/accel"
	"github.com/memcentric/mcdla/internal/dnn"
	"github.com/memcentric/mcdla/internal/sim"
	"github.com/memcentric/mcdla/internal/trace"
	"github.com/memcentric/mcdla/internal/train"
	"github.com/memcentric/mcdla/internal/units"
	"github.com/memcentric/mcdla/internal/vmem"
)

// Collectives is what an event engine supplies to the device-iteration
// kernel: how it prices and issues the schedule's collectives on its own
// channels. The kernel relies on the shape train.Schedule.Validate holds:
// forward ops block, and a layer's backward pass carries at most one op, a
// blocking dX reduction (model parallel) or an overlapped dW one (data
// parallel).
type Collectives interface {
	// Blocking issues op at issue and returns when the device resumes,
	// never before resume.
	Blocking(issue, resume units.Time, op train.SyncOp) units.Time
	// Overlapped issues what trails layer id's backward pass, which ended
	// at t; ops holds its non-blocking reduction, if any.
	Overlapped(id int, t units.Time, ops []train.SyncOp)
	// Boundary runs at every backward layer boundary.
	Boundary(t units.Time)
	// Drain lands every overlapped collective after the backward pass ends
	// at t and returns when the last one lands (never before t).
	Drain(t units.Time) units.Time
}

// Iteration is the device-iteration kernel both event engines run: one
// representative device executes the schedule while its virtualization
// DMAs become flows in the Virt group. It owns forward compute with its
// offloads, the backward prefetch pipeline, stalls, recomputes and dX/dW
// GEMM split, the final DMA drain and the tallies; the engine sets the
// inputs, calls Run with its Collectives, and reads the tallies.
type Iteration struct {
	Device accel.Config
	Sched  *train.Schedule
	Prep   *vmem.Prepared
	Virt   sim.Group
	// Window is each engine's constant prefetch policy. Zero issues whole
	// per-layer groups FIFO, the next once the device takes the last (the
	// node engine). A positive window keeps that many items in flight,
	// topped up at every backward boundary, the earliest-needed first (the
	// plane), so the channel never idles waiting for the device.
	Window int
	Trace  *trace.Log

	// Tallies, set by Run. VirtTime sums each transfer's time at Virt's
	// rate.
	Compute, StallVirt units.Time
	VirtBytes          units.Bytes
	VirtTime, End      units.Time

	fetched  []inflight
	next, lo int // next queue item to issue; first item perhaps in flight
}

type inflight struct {
	flow   sim.Flow
	issued units.Time
	traced bool
}

// Run simulates the iteration; Sched must pass train.Schedule.Validate.
// It starts the tallies from zero and keeps the prefetch table's storage,
// so one Iteration can run schedule after schedule without growing it
// anew.
func (it *Iteration) Run(c Collectives) {
	s, g, prep, tr := it.Sched, it.Sched.Graph, it.Prep, it.Trace
	fwd := ForwardPrices(it.Device, s)
	var t units.Time
	it.Compute, it.StallVirt, it.VirtBytes, it.VirtTime, it.End = 0, 0, 0, 0, 0
	it.next, it.lo = 0, 0

	// ---- Forward propagation ----
	for _, l := range g.Layers {
		ft := fwd[l.ID]
		tr.Add(l.Name, "/fwd", trace.Compute, t, t+ft)
		t += ft
		it.Compute += ft
		for _, id := range prep.Offloads(l.ID) {
			it.offload(t, g.Layer(id).Name, "/offload", prep.Plan.Tensor(id).Bytes)
		}
		if extra := prep.Plan.ExtraStash(l.ID); extra > 0 {
			it.offload(t, l.Name, "/offload-state", extra)
		}
		for _, op := range s.FwdSync(l.ID) {
			done := c.Blocking(t, t, op)
			tr.Add(l.Name, "/"+op.Op.String(), trace.SyncWait, t, done)
			t = done
		}
	}

	// ---- Backward propagation (reverse topological order) ----
	//
	// Prefetches run over the plan's deduplicated queue: the DMA engine
	// fetches each stash tensor exactly once, ordered by first backward use,
	// so a transfer is in flight underneath the backward computation (the
	// vDNN/LMS performance-aware overlap of §IV) and a tensor shared by
	// several backward consumers moves once and stays resident. The device
	// stalls only when the channel falls behind the compute.
	sched := prep.Sched
	it.fetched = slices.Grow(it.fetched[:0], len(sched.Items))[:len(sched.Items)]
	clear(it.fetched)
	it.refill(t)
	for id := len(g.Layers) - 1; id >= 0; id-- {
		if it.Window > 0 {
			it.refill(t)
		}
		c.Boundary(t)
		if items := sched.NeededAt(id); len(items) > 0 {
			// Force the queue through everything this layer needs, then
			// block on the transfers (already-landed shared tensors wait for
			// free).
			for it.next <= sched.MaxNeededAt(id) {
				it.issue(t)
			}
			stallFrom := t
			for _, i := range items {
				f := &it.fetched[i]
				t = it.Virt.Channel().Wait(t, f.flow)
				if tr != nil && !f.traced {
					f.traced = true
					tr.Add(sched.ItemName(int(i)), "/prefetch", trace.Prefetch, f.issued, f.flow.DoneAt())
				}
			}
			tr.Add(g.Layer(id).Name, "/stall", trace.Stall, stallFrom, t)
			it.StallVirt += t - stallFrom
			it.refill(t)
		}
		// Recompute cheap producers whose outputs were not stashed, each
		// once, at the first backward step that needs it.
		for _, rid := range prep.Recompute(id) {
			rl := g.Layer(rid)
			rt := fwd[rid]
			tr.Add(rl.Name, "/recompute", trace.Recompute, t, t+rt)
			t += rt
			it.Compute += rt
		}
		l := g.Layer(id)
		bt := units.Time(accel.BackwardFactor * float64(fwd[id]))
		it.Compute += bt
		tr.Add(l.Name, "/bwd", trace.Compute, t, t+bt)

		// Backward runs two independent GEMMs: dX = dY·Wᵀ first (its result
		// feeds the blocking dX reduction under model parallelism), then
		// dW = Xᵀ·dY, which overlaps with the reduction in flight.
		ops := s.BwdSync(id)
		if len(ops) > 0 && ops[0].Blocking {
			issue := t + bt/2        // the dX GEMM's result is ready
			waitFrom := issue + bt/2 // the dW GEMM is done
			t = c.Blocking(issue, waitFrom, ops[0])
			tr.Add(l.Name, "/dX-reduce", trace.SyncWait, waitFrom, t)
			ops = nil
		} else {
			t += bt
		}
		c.Overlapped(id, t, ops)
	}

	// ---- Iteration end: overlapped collectives and DMAs must land ----
	it.End = it.Virt.Channel().Drain(c.Drain(t))
}

// offload starts one stash transfer toward the backing store at t.
func (it *Iteration) offload(t units.Time, name, suffix string, planBytes int64) {
	size := it.Sched.StashBytes(planBytes)
	dt := units.TransferTime(size, it.Virt.Rate())
	it.Virt.Channel().Start(t, it.Virt, size, 0, 0)
	it.Trace.Add(name, suffix, trace.Offload, t, t+dt)
	it.VirtBytes += size
	it.VirtTime += dt
}

// issue moves the next prefetch unit onto the channel: a whole per-layer
// group under the FIFO policy, one prioritised item under a window.
func (it *Iteration) issue(at units.Time) {
	queue := it.Prep.Sched.Items
	layer, pri := queue[it.next].Layer, 0
	if it.Window > 0 {
		pri = 1 + int(layer)
	}
	for {
		size := it.Sched.StashBytes(queue[it.next].Bytes)
		f := it.Virt.Channel().Start(at, it.Virt, size, 0, pri)
		it.fetched[it.next] = inflight{flow: f, issued: at}
		it.VirtBytes += size
		it.VirtTime += units.TransferTime(size, it.Virt.Rate())
		it.next++
		if it.Window > 0 || it.next == len(queue) || queue[it.next].Layer != layer {
			return
		}
	}
}

// refill lets the DMA engine start on the queue once the device has taken
// what it needs: the next group under the FIFO policy, or as many items as
// the window has room for, counting in-flight flows by advancing the
// channel to the device clock.
func (it *Iteration) refill(at units.Time) {
	n := len(it.Prep.Sched.Items)
	if it.Window == 0 {
		if it.next < n {
			it.issue(at)
		}
		return
	}
	it.Virt.Channel().AdvanceTo(at)
	for it.lo < it.next && it.fetched[it.lo].flow.Done() {
		it.lo++
	}
	inFlight := 0
	for _, f := range it.fetched[it.lo:it.next] {
		if !f.flow.Done() {
			inFlight++
		}
	}
	for ; inFlight < it.Window && it.next < n; inFlight++ {
		it.issue(at)
	}
}

// layerPrices counts LayerFwdTime evaluations, so a test can hold the price
// tables to one evaluation per layer, schedule and price key.
var layerPrices atomic.Int64

// LayerFwdTime estimates the device's forward latency for its shard of the
// layer (full layer under data parallel, an output slice under model
// parallel; elementwise layers run replicated on gathered tensors).
func LayerFwdTime(dev accel.Config, g *dnn.Graph, l *dnn.Layer, w train.LayerWork) units.Time {
	layerPrices.Add(1)
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

// ForwardPrices returns s's per-layer forward price table on dev, indexed by
// layer ID: entry l.ID is LayerFwdTime of layer l. It is built once per
// schedule and dev.PriceKey() (train.Schedule.ForwardPrices) and shared, so
// callers must not modify it. A layer's backward price is
// accel.BackwardFactor times its entry (the dX and dW GEMMs), and a
// recompute costs the entry again.
func ForwardPrices(dev accel.Config, s *train.Schedule) []units.Time {
	key := dev.PriceKey()
	return s.ForwardPrices(key, func(l *dnn.Layer, w train.LayerWork) units.Time {
		return LayerFwdTime(key, s.Graph, l, w)
	})
}
