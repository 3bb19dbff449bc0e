// Timeline faces of the run, plane and fleet commands, shared by the CLI
// (-timeline FILE) and the HTTP service (?timeline=1): both surfaces call
// the same table entry and serialize through trace.Timeline.WriteChrome, so
// the same request produces the same bytes on either surface. Traced
// simulations bypass the memo cache — a timeline is a re-execution, not a
// lookup — but read their schedules from the engine's memo like every
// other study. They are pure virtual-clock computations, so the output is
// byte-identical at any parallelism.
package experiments

import (
	"context"
	"fmt"

	"github.com/memcentric/mcdla/internal/core"
	"github.com/memcentric/mcdla/internal/dse"
	"github.com/memcentric/mcdla/internal/scaleout"
	"github.com/memcentric/mcdla/internal/trace"
)

// runTimeline simulates run's design point once with span tracing and
// returns it as a single-process timeline (lanes: compute, stall/sync,
// offload, prefetch).
func runTimeline(p dse.Point) (*trace.Timeline, error) {
	d, err := p.DesignOn(network)
	if err != nil {
		return nil, err
	}
	s, err := schedule(p.Job(d))
	if err != nil {
		return nil, err
	}
	tr := &trace.Log{} // the simulation labels it design x workload
	if _, err := core.SimulateTraced(d, s, tr); err != nil {
		return nil, err
	}
	t := &trace.Timeline{Label: tr.Label}
	t.AddProcess(tr.Label, tr)
	return t, nil
}

// planeTimeline traces the §VI memory-centric plane at each system-node
// count: one process per plane size, so Perfetto shows how the offload,
// prefetch and inter-node collective lanes fill as the plane grows. The
// sweep runs sequentially — timelines are about span layout, not wall-clock
// speed — and honors ctx between plane sizes.
func planeTimeline(ctx context.Context, workload string, nodeCounts []int) (*trace.Timeline, error) {
	batch := ScaleOutBatch(nodeCounts)
	t := &trace.Timeline{Label: fmt.Sprintf("plane %s", workload)}
	for _, n := range nodeCounts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		tr := &trace.Log{}
		if _, err := plane(n).SimulateTraced(workload, batch, true, scaleout.DataParallel, tr); err != nil {
			return nil, err
		}
		t.AddProcess(fmt.Sprintf("MC-plane %d nodes", n), tr)
	}
	return t, nil
}
