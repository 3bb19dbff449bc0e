package vmem

import (
	"github.com/memcentric/mcdla/internal/dnn"
)

// Prepared bundles a validated plan with the derived per-layer lookups the
// event engines consult in their inner loops. Analyze and Validate walk the
// whole graph, and RecomputeFor / PrefetchSchedule re-derive sorted slices
// from map state on every call; Prepare does all of that once so
// simulations that share a schedule (design sweeps over bandwidth axes) pay
// for the analysis a single time. A Prepared value is immutable after
// construction and safe for concurrent use.
type Prepared struct {
	Plan  *Plan
	Sched *PrefetchSchedule
	// Offloads[id] holds the stash tensors whose offload is enqueued after
	// layer id's forward pass, sorted (the test oracle OffloadsAfter derives
	// each bucket from the plan alone).
	Offloads [][]int
	// Recompute[id] holds the producers re-executed before layer id's
	// backward pass — RecomputeFor's chain, nearest first.
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
		pr.Recompute[id] = plan.RecomputeFor(id)
	}
	return pr, nil
}
