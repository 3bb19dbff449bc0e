// Package vmem implements the DNN memory-virtualization runtime the paper
// builds on (§II-B, §IV): the DL framework's compile-time DAG analysis
// derives each tensor's reuse distance, and a runtime memory manager
// schedules software-managed memory-overlaying operations — DMA offloads of
// feature maps to the backing store after their last forward use, and
// prefetches back ahead of their backward use — overlapped with computation.
// Layers with short compute (activations, pooling, ...) are recomputed
// during backprop instead of migrated, the MXNet-style exception the paper
// adopts for a conservative evaluation (§IV footnote 4).
//
// The backing store is design-point specific: host memory over PCIe
// (DC-DLA), host memory over CPU-side links (HC-DLA), or deviceremote
// memory inside the memory-nodes (MC-DLA); vmem only decides what moves and
// when, not over which channel.
package vmem

import (
	"fmt"

	"github.com/memcentric/mcdla/internal/dnn"
)

// Action says how a tensor needed by backprop is made available.
type Action int

const (
	// None is the zero value: backprop does not read the tensor, and the
	// plan's entry for it is empty.
	None Action = iota
	// Stash moves the tensor to the backing store after last forward use
	// and prefetches it before backward use.
	Stash
	// Recompute re-runs the (cheap) producing layer during backprop.
	Recompute
	// Keep leaves the tensor resident (oracle mode, or tensors that are
	// reused immediately).
	Keep
)

func (a Action) String() string {
	switch a {
	case None:
		return "none"
	case Stash:
		return "stash"
	case Recompute:
		return "recompute"
	case Keep:
		return "keep"
	}
	return fmt.Sprintf("Action(%d)", int(a))
}

// TensorPlan is the runtime's decision for one layer's output tensor.
type TensorPlan struct {
	// Action selects the backprop strategy.
	Action Action
	// Bytes is the tensor footprint (per device; the caller has already
	// applied the parallelization split).
	Bytes int64
	// OffloadAfter is the topological index of the last forward consumer —
	// the DMA offload is enqueued when that layer's forward completes.
	OffloadAfter int
}

// Plan is the per-iteration memory-overlaying schedule for one device.
type Plan struct {
	Graph *dnn.Graph
	// Tensors is indexed by producer layer ID. Only the tensors backprop
	// needs are planned; the others keep the zero entry, whose Action is
	// None.
	Tensors []TensorPlan
	// ExtraStash is indexed by layer ID: the additional backward state
	// bytes (recurrent gate activations) stashed alongside the inputs.
	ExtraStash []int64
}

// Options tunes the planner.
type Options struct {
	// Oracle disables virtualization entirely: everything Keeps (the
	// infinite-memory DC-DLA(O) design point).
	Oracle bool
	// DisableRecompute stashes cheap layers too (used by ablation benches).
	DisableRecompute bool
}

// Analyze derives the memory-overlaying plan from the network DAG, exactly
// the policy of §IV: every expensive layer's input feature maps are pushed
// to the backing store after their last forward use and prefetched during
// backprop; cheap layers are recomputed. scale multiplies tensor footprints
// (model-parallel devices hold full-batch tensors; data-parallel devices
// hold 1/workers of the batch — callers express this by building the graph
// at the per-device batch, so scale is normally 1).
func Analyze(g *dnn.Graph, opt Options) *Plan {
	p := &Plan{
		Graph:      g,
		Tensors:    make([]TensorPlan, len(g.Layers)),
		ExtraStash: make([]int64, len(g.Layers)),
	}
	if opt.Oracle {
		return p
	}
	lastUse := g.LastForwardUse()
	recompute := !opt.DisableRecompute
	for _, l := range g.Layers {
		if l.Kind == dnn.Input || !(l.Kind.Expensive() || opt.DisableRecompute) {
			continue
		}
		for _, in := range l.Inputs {
			p.plan(in, lastUse, recompute)
		}
		p.ExtraStash[l.ID] = l.StashExtraBytes
	}
	// Recompute chains: a cheap producer's own inputs must be planned too
	// (stashed, or recomputed further back) so the backward pass can
	// rebuild the tensor. A layer's inputs precede it, so one sweep in
	// descending ID order reaches every link of a chain after the link
	// that planned it.
	for id := len(g.Layers) - 1; id >= 0; id-- {
		if p.Tensors[id].Action != Recompute {
			continue
		}
		for _, in := range g.Layer(id).Inputs {
			p.plan(in, lastUse, recompute)
		}
	}
	return p
}

// plan enters tensor id unless it is planned already: stashed, or
// recomputed when recompute is on and its producer is a cheap layer. The
// walk of a recompute chain terminates at an expensive or input layer,
// whose output is stashed.
func (p *Plan) plan(id int, lastUse []int, recompute bool) {
	if p.Tensors[id].Action != None {
		return
	}
	src := p.Graph.Layer(id)
	action := Stash
	if recompute && src.Kind != dnn.Input && !src.Kind.Expensive() {
		action = Recompute
	}
	p.Tensors[id] = TensorPlan{Action: action, Bytes: src.OutBytes(), OffloadAfter: lastUse[id]}
}

// count reports how many tensors the plan gives action a.
func (p *Plan) count(a Action) int {
	n := 0
	for _, tp := range p.Tensors {
		if tp.Action == a {
			n++
		}
	}
	return n
}

// OffloadBytes reports the per-iteration bytes DMAed to the backing store.
func (p *Plan) OffloadBytes() int64 {
	var total int64
	for _, tp := range p.Tensors {
		if tp.Action == Stash {
			total += tp.Bytes
		}
	}
	for _, b := range p.ExtraStash {
		total += b
	}
	return total
}

// TrafficBytes reports total backing-store traffic per iteration: the
// offloads plus the same bytes prefetched back, since the backward pass
// fetches every stash tensor exactly once (before its first backward use)
// and keeps it resident for later consumers.
func (p *Plan) TrafficBytes() int64 { return 2 * p.OffloadBytes() }

// PrefetchItem is one DMA the backward pass issues from the backing store.
type PrefetchItem struct {
	// Layer is the backward step the transfer must precede.
	Layer int
	// Tensor is the stashed producer ID, or -1 for a layer's extra backward
	// state (recurrent gate activations).
	Tensor int
	// Bytes is the transfer size.
	Bytes int64
}

// PrefetchSchedule is the indexed form of the prefetch queue the backward
// engines consume: the FIFO items plus, per layer, the queue positions whose
// transfers must have landed before that layer's backward step (its stashed
// inputs — wherever their first use put them — and its own extra state).
// The one device-iteration kernel, core.Iteration, drives it for both the
// core engine and the scale-out plane. A plan that queues nothing gets an
// empty schedule, with no index.
type PrefetchSchedule struct {
	// Items is the backward DMA queue in issue order: layers in reverse
	// topological order, each stash tensor appearing exactly once at the
	// layer of its first backward use (its extra state alongside). The DMA
	// engine streams it FIFO underneath the backward computation; summing
	// it reproduces the offload bytes exactly, which is the invariant tying
	// the planner's accounting to the engine's charged traffic.
	Items []PrefetchItem

	plan *Plan
	// needed holds every layer's queue positions back to back, highest
	// layer first: layer id's are needed[bound[id+1]:bound[id]]. Both are
	// nil when the queue is empty.
	needed []int
	bound  []int32
}

// PrefetchSchedule builds the queue and its per-layer index in one pass
// over the layers in backward order: a stash tensor joins the queue at the
// first layer that reads it, and every later reader points at that item.
// The queue holds one item per stash tensor and per extra state, and the
// index one entry per stash input read and per extra state, so both are
// sized before the pass.
func (p *Plan) PrefetchSchedule() *PrefetchSchedule {
	g := p.Graph
	n := len(g.Layers)
	items, reads := p.count(Stash), 0
	for _, l := range g.Layers {
		for _, in := range l.Inputs {
			if p.Tensors[in].Action == Stash {
				reads++
			}
		}
		if p.ExtraStash[l.ID] > 0 {
			items++
			reads++
		}
	}
	s := &PrefetchSchedule{plan: p}
	if items == 0 {
		return s
	}
	s.Items = make([]PrefetchItem, 0, items)
	s.needed = make([]int, 0, reads)
	s.bound = make([]int32, n+1)
	item := make([]int32, n) // 1 + queue position of each queued tensor
	for id := n - 1; id >= 0; id-- {
		for _, in := range g.Layer(id).Inputs {
			tp := p.Tensors[in]
			if tp.Action != Stash {
				continue
			}
			if item[in] == 0 {
				s.Items = append(s.Items, PrefetchItem{Layer: id, Tensor: in, Bytes: tp.Bytes})
				item[in] = int32(len(s.Items))
			}
			s.needed = append(s.needed, int(item[in]-1))
		}
		if extra := p.ExtraStash[id]; extra > 0 {
			s.Items = append(s.Items, PrefetchItem{Layer: id, Tensor: -1, Bytes: extra})
			s.needed = append(s.needed, len(s.Items)-1)
		}
		s.bound[id] = int32(len(s.needed))
	}
	return s
}

// NeededAt returns the queue indices that must be resident before the given
// layer's backward step, in deterministic (input, then extra-state) order:
// nil on an empty schedule.
func (s *PrefetchSchedule) NeededAt(layer int) []int {
	if s.bound == nil {
		return nil
	}
	return s.needed[s.bound[layer+1]:s.bound[layer]]
}

// MaxNeededAt returns the highest queue index NeededAt(layer) contains — the
// position a FIFO issuer must have reached — or -1 when the layer needs
// nothing.
func (s *PrefetchSchedule) MaxNeededAt(layer int) int {
	max := -1
	for _, i := range s.NeededAt(layer) {
		if i > max {
			max = i
		}
	}
	return max
}

// ItemName names a queue item for trace spans: the producing layer of the
// tensor, or "<layer>/state" for extra backward state.
func (s *PrefetchSchedule) ItemName(i int) string {
	if it := s.Items[i]; it.Tensor >= 0 {
		return s.plan.Graph.Layer(it.Tensor).Name
	}
	return s.plan.Graph.Layer(s.Items[i].Layer).Name + "/state"
}

// Validate checks plan invariants: the tables cover every layer, every
// planned tensor has positive size and a legal offload point, and every
// recompute chain terminates in stashed or input tensors.
func (p *Plan) Validate() error {
	if n := len(p.Graph.Layers); len(p.Tensors) != n || len(p.ExtraStash) != n {
		return fmt.Errorf("vmem: plan tables hold %d tensors and %d extra-state entries for %d layers",
			len(p.Tensors), len(p.ExtraStash), n)
	}
	for id, tp := range p.Tensors {
		if tp.Action == None {
			continue
		}
		if tp.Bytes <= 0 {
			return fmt.Errorf("vmem: tensor %d has nonpositive size", id)
		}
		if tp.OffloadAfter < id {
			return fmt.Errorf("vmem: tensor %d offloads before it is produced", id)
		}
		if tp.Action == Recompute {
			for _, in := range p.Graph.Layer(id).Inputs {
				if p.Graph.Layer(in).Kind != dnn.Input && p.Tensors[in].Action == None {
					return fmt.Errorf("vmem: recompute tensor %d has unplanned input %d", id, in)
				}
			}
		}
	}
	return nil
}
