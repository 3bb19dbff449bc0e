package vmem

import (
	"github.com/memcentric/mcdla/internal/dnn"
)

// Prepared bundles a validated plan with the derived per-layer lookups the
// event engines consult in their inner loops. Analyze and Validate walk the
// whole graph, and the offload, recompute and prefetch lookups are derived
// from the plan's map state; Prepare does all of that once so simulations
// that share a schedule (design sweeps over bandwidth axes) pay for the
// analysis a single time. A Prepared value is immutable after construction
// and safe for concurrent use.
type Prepared struct {
	Plan  *Plan
	Sched *PrefetchSchedule
	// Offloads[id] holds the stash tensors whose offload is enqueued after
	// layer id's forward pass, sorted (the test oracle OffloadsAfter derives
	// each bucket from the plan alone).
	Offloads [][]int
	// Recompute[id] holds the producers re-executed before layer id's
	// backward pass, each recomputed tensor once in all the lists: at the
	// first backward step (highest ID) whose recompute chain reaches it, in
	// chain order, inputs before the layers that read them.
	Recompute [][]int
}

// Prepare analyzes the graph, validates the plan, and materializes the
// per-layer offload and recompute tables plus the indexed prefetch schedule.
func Prepare(g *dnn.Graph, opt Options) (*Prepared, error) {
	plan := Analyze(g, opt)
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	pr := &Prepared{
		Plan:      plan,
		Sched:     plan.PrefetchSchedule(),
		Offloads:  make([][]int, len(g.Layers)),
		Recompute: make([][]int, len(g.Layers)),
	}
	// One pass in ascending producer order, so each Offloads bucket comes
	// out sorted: the table the test oracle OffloadsAfter builds layer by
	// layer.
	for id := range g.Layers {
		if tp, ok := plan.Tensors[id]; ok && tp.Action == Stash {
			pr.Offloads[tp.OffloadAfter] = append(pr.Offloads[tp.OffloadAfter], id)
		}
	}
	// Build the recompute lists in backward order with one seen-set: a chain
	// walk lists a producer after its own recomputed inputs and stops at a
	// producer already listed, whose inputs were listed before it. Each
	// producer is expanded once, so the tables cost O(layers + edges).
	seen := make([]bool, len(g.Layers))
	var walk func(id, in int)
	walk = func(id, in int) {
		if seen[in] {
			return
		}
		if tp, ok := plan.Tensors[in]; !ok || tp.Action != Recompute {
			return
		}
		for _, pin := range g.Layer(in).Inputs {
			walk(id, pin)
		}
		seen[in] = true
		pr.Recompute[id] = append(pr.Recompute[id], in)
	}
	for id := len(g.Layers) - 1; id >= 0; id-- {
		for _, in := range g.Layer(id).Inputs {
			walk(id, in)
		}
	}
	return pr, nil
}
