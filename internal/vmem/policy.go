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
	"sort"

	"github.com/memcentric/mcdla/internal/dnn"
)

// Action says how a tensor needed by backprop is made available.
type Action int

const (
	// Stash moves the tensor to the backing store after last forward use
	// and prefetches it before backward use.
	Stash Action = iota
	// Recompute re-runs the (cheap) producing layer during backprop.
	Recompute
	// Keep leaves the tensor resident (oracle mode, or tensors that are
	// reused immediately).
	Keep
)

func (a Action) String() string {
	switch a {
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
	// Producer is the layer whose output this is.
	Producer int
	// Action selects the backprop strategy.
	Action Action
	// Bytes is the tensor footprint (per device; the caller has already
	// applied the parallelization split).
	Bytes int64
	// OffloadAfter is the topological index of the last forward consumer —
	// the DMA offload is enqueued when that layer's forward completes.
	OffloadAfter int
	// NeededAt lists the backward steps (layer IDs, processed in reverse
	// topological order) that read this tensor; the prefetch must land
	// before the earliest-processed (i.e. highest) ID.
	NeededAt []int
}

// Plan is the per-iteration memory-overlaying schedule for one device.
type Plan struct {
	Graph *dnn.Graph
	// Tensors maps producer layer ID to its plan entry (only tensors that
	// backprop needs appear).
	Tensors map[int]TensorPlan
	// ExtraStash maps layer ID to additional per-layer backward state bytes
	// (recurrent gate activations) that is stashed alongside the inputs.
	ExtraStash map[int]int64
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
		Tensors:    make(map[int]TensorPlan),
		ExtraStash: make(map[int]int64),
	}
	if opt.Oracle {
		return p
	}
	lastUse := g.LastForwardUse()
	for _, l := range g.Layers {
		if l.Kind == dnn.Input {
			continue
		}
		needsInputs := l.Kind.Expensive() || opt.DisableRecompute
		if !needsInputs {
			continue
		}
		for _, in := range l.Inputs {
			producer := g.Layer(in)
			entry, exists := p.Tensors[in]
			if !exists {
				action := Stash
				if producer.Kind != dnn.Input && !producer.Kind.Expensive() && !opt.DisableRecompute {
					// The producing layer is cheap: backprop recomputes it
					// from ITS stashed inputs instead of migrating this
					// tensor. Walking the recompute chain terminates at an
					// expensive or input layer whose output is stashed.
					action = Recompute
				}
				entry = TensorPlan{
					Producer:     in,
					Action:       action,
					Bytes:        producer.OutBytes(),
					OffloadAfter: lastUse[in],
				}
			}
			entry.NeededAt = append(entry.NeededAt, l.ID)
			p.Tensors[in] = entry
		}
		if l.StashExtraBytes > 0 {
			p.ExtraStash[l.ID] = l.StashExtraBytes
		}
	}
	// Recompute chains: a cheap producer's own stashed inputs must exist.
	// Ensure transitively that every Recompute tensor's producer inputs are
	// themselves planned (stash or further recompute).
	p.closeRecomputeChains(lastUse)
	return p
}

// closeRecomputeChains walks Recompute entries and plans their producers'
// inputs so the backward pass can actually rebuild the tensors.
func (p *Plan) closeRecomputeChains(lastUse []int) {
	g := p.Graph
	work := make([]int, 0, len(p.Tensors))
	for id, tp := range p.Tensors {
		if tp.Action == Recompute {
			work = append(work, id)
		}
	}
	// The chain walk mutates p.Tensors as it goes; a sorted worklist keeps
	// the resulting plan independent of map iteration order.
	sort.Ints(work)
	for len(work) > 0 {
		id := work[len(work)-1]
		work = work[:len(work)-1]
		producer := g.Layer(id)
		for _, in := range producer.Inputs {
			if _, exists := p.Tensors[in]; exists {
				continue
			}
			src := g.Layer(in)
			action := Stash
			if src.Kind != dnn.Input && !src.Kind.Expensive() {
				action = Recompute
				work = append(work, in)
			}
			p.Tensors[in] = TensorPlan{
				Producer:     in,
				Action:       action,
				Bytes:        src.OutBytes(),
				OffloadAfter: lastUse[in],
				NeededAt:     []int{id},
			}
		}
	}
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

// PrefetchBytes reports the per-iteration bytes DMAed back during backprop.
// Genuinely symmetric with OffloadBytes: every stash tensor is prefetched
// exactly once (before its first backward use) and stays resident for any
// later backward consumers, so the plan never re-fetches a shared tensor.
func (p *Plan) PrefetchBytes() int64 { return p.OffloadBytes() }

// TrafficBytes reports total backing-store traffic per iteration.
func (p *Plan) TrafficBytes() int64 { return p.OffloadBytes() + p.PrefetchBytes() }

// PrefetchFor returns the stash bytes that must be resident before the
// backward pass of the given layer runs: its planned input tensors plus its
// extra stash. Residency, not traffic: a tensor shared by several backward
// consumers appears in every consumer's PrefetchFor but moves only once (see
// PrefetchQueue).
func (p *Plan) PrefetchFor(layer int) int64 {
	var total int64
	l := p.Graph.Layer(layer)
	for _, in := range l.Inputs {
		if tp, ok := p.Tensors[in]; ok && tp.Action == Stash {
			total += tp.Bytes
		}
	}
	total += p.ExtraStash[layer]
	return total
}

// FirstBackwardUse reports the layer whose backward pass reads the stash
// tensor first — the highest consumer ID, since backprop walks the graph in
// reverse topological order. The prefetch must land before that layer's
// backward step; the tensor then stays resident for later (lower-ID)
// consumers. Returns -1 for tensors no backward step reads.
func (p *Plan) FirstBackwardUse(tensor int) int {
	tp, ok := p.Tensors[tensor]
	if !ok {
		return -1
	}
	first := -1
	for _, id := range tp.NeededAt {
		if id > first {
			first = id
		}
	}
	return first
}

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

// PrefetchQueue returns the backward DMA schedule in issue order: layers in
// reverse topological order, each stash tensor appearing exactly once at the
// layer of its first backward use (its extra state alongside). The DMA
// engine streams the queue FIFO underneath the backward computation; summing
// the queue reproduces PrefetchBytes exactly, which is the invariant tying
// the planner's accounting to the engine's charged traffic.
func (p *Plan) PrefetchQueue() []PrefetchItem {
	g := p.Graph
	var queue []PrefetchItem
	seen := make(map[int]bool)
	for id := len(g.Layers) - 1; id >= 0; id-- {
		for _, in := range g.Layer(id).Inputs {
			tp, ok := p.Tensors[in]
			if !ok || tp.Action != Stash || seen[in] {
				continue
			}
			seen[in] = true
			queue = append(queue, PrefetchItem{Layer: id, Tensor: in, Bytes: tp.Bytes})
		}
		if extra := p.ExtraStash[id]; extra > 0 {
			queue = append(queue, PrefetchItem{Layer: id, Tensor: -1, Bytes: extra})
		}
	}
	return queue
}

// PrefetchSchedule is the indexed form of the prefetch queue the backward
// engines consume: the FIFO items plus, per layer, the queue positions whose
// transfers must have landed before that layer's backward step (its stashed
// inputs — wherever their first use put them — and its own extra state).
// The one device-iteration kernel, core.Iteration, drives it for both the
// core engine and the scale-out plane.
type PrefetchSchedule struct {
	Items []PrefetchItem

	plan   *Plan
	needed [][]int
}

// PrefetchSchedule builds the indexed schedule.
func (p *Plan) PrefetchSchedule() *PrefetchSchedule {
	s := &PrefetchSchedule{Items: p.PrefetchQueue(), plan: p}
	g := p.Graph
	tensorItem := make(map[int]int, len(s.Items))
	extraItem := make(map[int]int)
	for i, it := range s.Items {
		if it.Tensor >= 0 {
			tensorItem[it.Tensor] = i
		} else {
			extraItem[it.Layer] = i
		}
	}
	s.needed = make([][]int, len(g.Layers))
	for id, l := range g.Layers {
		for _, in := range l.Inputs {
			if tp, ok := p.Tensors[in]; ok && tp.Action == Stash {
				s.needed[id] = append(s.needed[id], tensorItem[in])
			}
		}
		if i, ok := extraItem[id]; ok {
			s.needed[id] = append(s.needed[id], i)
		}
	}
	return s
}

// NeededAt returns the queue indices that must be resident before the given
// layer's backward step, in deterministic (input, then extra-state) order.
func (s *PrefetchSchedule) NeededAt(layer int) []int { return s.needed[layer] }

// MaxNeededAt returns the highest queue index NeededAt(layer) contains — the
// position a FIFO issuer must have reached — or -1 when the layer needs
// nothing.
func (s *PrefetchSchedule) MaxNeededAt(layer int) int {
	max := -1
	for _, i := range s.needed[layer] {
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

// Validate checks plan invariants: every stash entry has positive size and a
// legal offload point, every recompute chain terminates in stashed or input
// tensors.
func (p *Plan) Validate() error {
	for id, tp := range p.Tensors {
		if tp.Producer != id {
			return fmt.Errorf("vmem: tensor %d has mismatched producer %d", id, tp.Producer)
		}
		if tp.Bytes <= 0 {
			return fmt.Errorf("vmem: tensor %d has nonpositive size", id)
		}
		if tp.OffloadAfter < id {
			return fmt.Errorf("vmem: tensor %d offloads before it is produced", id)
		}
		if tp.Action == Recompute {
			for _, in := range p.Graph.Layer(id).Inputs {
				src := p.Graph.Layer(in)
				if src.Kind == dnn.Input {
					continue
				}
				if _, ok := p.Tensors[in]; !ok {
					return fmt.Errorf("vmem: recompute tensor %d has unplanned input %d", id, in)
				}
			}
		}
	}
	return nil
}
