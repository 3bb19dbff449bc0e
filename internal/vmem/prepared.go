package vmem

import (
	"github.com/memcentric/mcdla/internal/dnn"
)

// Prepared bundles a validated plan with the derived per-layer lookups the
// event engines consult in their inner loops. Analyze and Validate walk the
// whole graph, and the offload, recompute and prefetch lookups are derived
// from the plan's tables; Prepare does all of that once so simulations that
// share a network (design sweeps over bandwidth axes, and every schedule
// built on the graph) pay for the analysis a single time. A Prepared value
// is immutable after construction and safe for concurrent use.
//
// The offload and recompute lookups are compressed sparse rows, the layout
// PrefetchSchedule's index uses: one table of layer IDs holding every
// layer's list back to back, and int32 bounds delimiting each layer's
// window. A plan that stashes or recomputes nothing allocates no bounds for
// that lookup, and it answers nil for every layer.
type Prepared struct {
	Plan  *Plan
	Sched *PrefetchSchedule

	// offloads holds the lists in ascending layer order: layer id's is
	// offloads[offBound[id]:offBound[id+1]].
	offloads []int
	offBound []int32
	// recompute holds the lists in backward order, highest layer first:
	// layer id's is recompute[recBound[id+1]:recBound[id]].
	recompute []int
	recBound  []int32
}

// Offloads returns the stash tensors whose offload is enqueued after layer
// id's forward pass, sorted (the test oracle OffloadsAfter derives each list
// from the plan alone). The list is read-only.
func (pr *Prepared) Offloads(id int) []int {
	if pr.offBound == nil {
		return nil
	}
	return pr.offloads[pr.offBound[id]:pr.offBound[id+1]:pr.offBound[id+1]]
}

// Recompute returns the producers re-executed before layer id's backward
// pass, each recomputed tensor once in all the lists: at the first backward
// step (highest ID) whose recompute chain reaches it, in chain order, inputs
// before the layers that read them. The list is read-only.
func (pr *Prepared) Recompute(id int) []int {
	if pr.recBound == nil {
		return nil
	}
	return pr.recompute[pr.recBound[id+1]:pr.recBound[id]:pr.recBound[id]]
}

// Prepare analyzes the graph, validates the plan, and materializes the
// per-layer offload and recompute tables plus the indexed prefetch schedule.
func Prepare(g *dnn.Graph, opt Options) (*Prepared, error) {
	plan := Analyze(g, opt)
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	n := len(g.Layers)
	pr := &Prepared{Plan: plan, Sched: plan.PrefetchSchedule()}
	if stashed := plan.count(Stash); stashed > 0 {
		// A counting pass sizes each layer's list, then one pass in
		// ascending producer order fills them, so each comes out sorted:
		// the list the test oracle OffloadsAfter builds layer by layer.
		// The fill advances each layer's start bound to the next layer's,
		// so the bounds shift back one place after it.
		pr.offloads = make([]int, stashed)
		pr.offBound = make([]int32, n+1)
		for _, tp := range plan.tensors {
			if tp.Action == Stash {
				pr.offBound[tp.OffloadAfter+1]++
			}
		}
		for id := range n {
			pr.offBound[id+1] += pr.offBound[id]
		}
		for id, tp := range plan.tensors {
			if tp.Action == Stash {
				pr.offloads[pr.offBound[tp.OffloadAfter]] = id
				pr.offBound[tp.OffloadAfter]++
			}
		}
		copy(pr.offBound[1:], pr.offBound[:n])
		pr.offBound[0] = 0
	}
	if recomputed := plan.count(Recompute); recomputed > 0 {
		// Build the recompute lists in backward order with one seen-set: a
		// chain walk lists a producer after its own recomputed inputs and
		// stops at a producer already listed, whose inputs were listed
		// before it. Each producer is expanded once, so the tables cost
		// O(layers + edges), and every recomputed tensor is listed once.
		seen := make([]bool, n)
		pr.recompute = make([]int, 0, recomputed)
		pr.recBound = make([]int32, n+1)
		var walk func(in int)
		walk = func(in int) {
			if seen[in] || plan.tensors[in].Action != Recompute {
				return
			}
			for _, pin := range g.Layer(in).Inputs {
				walk(pin)
			}
			seen[in] = true
			pr.recompute = append(pr.recompute, in)
		}
		for id := n - 1; id >= 0; id-- {
			for _, in := range g.Layer(id).Inputs {
				walk(in)
			}
			pr.recBound[id] = int32(len(pr.recompute))
		}
	}
	return pr, nil
}
