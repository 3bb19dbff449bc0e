package vmem

import (
	"github.com/memcentric/mcdla/internal/dnn"
)

// Prepared bundles a validated plan with the derived per-layer lookups the
// event engines consult in their inner loops. Analyze and Validate walk the
// whole graph, and the offload, recompute and prefetch lookups are derived
// from the plan's tables; Prepare does all of that once so simulations that
// share a network (design sweeps over bandwidth axes, and every schedule
// built on the graph) pay for the analysis a single time. A Prepared value is immutable after construction
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
	for id, tp := range plan.Tensors {
		if tp.Action == Stash {
			pr.Offloads[tp.OffloadAfter] = append(pr.Offloads[tp.OffloadAfter], id)
		}
	}
	// Build the recompute lists in backward order with one seen-set: a chain
	// walk lists a producer after its own recomputed inputs and stops at a
	// producer already listed, whose inputs were listed before it. Each
	// producer is expanded once, so the tables cost O(layers + edges), and
	// every recomputed tensor is listed once, so the lists share one
	// backing array of that size.
	seen := make([]bool, len(g.Layers))
	listed := make([]int, 0, plan.count(Recompute))
	var walk func(in int)
	walk = func(in int) {
		if seen[in] || plan.Tensors[in].Action != Recompute {
			return
		}
		for _, pin := range g.Layer(in).Inputs {
			walk(pin)
		}
		seen[in] = true
		listed = append(listed, in)
	}
	for id := len(g.Layers) - 1; id >= 0; id-- {
		from := len(listed)
		for _, in := range g.Layer(id).Inputs {
			walk(in)
		}
		if n := len(listed); n > from {
			pr.Recompute[id] = listed[from:n:n]
		}
	}
	return pr, nil
}
