package dse

import (
	"context"
	"fmt"
	"testing"

	"github.com/memcentric/mcdla/internal/core"
	"github.com/memcentric/mcdla/internal/cost"
	"github.com/memcentric/mcdla/internal/dnn"
	"github.com/memcentric/mcdla/internal/runner"
	"github.com/memcentric/mcdla/internal/train"
)

// TestMetamorphicLaws checks monotonicity laws over Point that hold for
// every workload without knowing any absolute number: each law walks one
// axis from a base point and requires every step to be no worse than the
// step before it. The goldens pin a handful of points; the laws cover the
// neighbourhoods between them.
func TestMetamorphicLaws(t *testing.T) {
	workloads := append(dnn.BenchmarkNames(), dnn.TransformerNames()...)
	strategies := []train.Strategy{train.DataParallel, train.ModelParallel}
	model := cost.Default()
	// One engine for every law: the walks share schedules, and points that
	// coincide across laws simulate once.
	eng := runner.New(runner.Options{})
	for _, law := range []struct {
		name    string
		designs []string
		// steps walks the axis from the base point, weakest setting first.
		steps func(base Point) []Point
		// check compares two successive steps; a non-empty reason is a
		// violation.
		check func(prev, next Point, rp, rn core.Result) string
	}{
		{
			name:    "more link GB/s never slows an iteration",
			designs: []string{"DC-DLA", "HC-DLA", "MC-DLA(S)", "MC-DLA(L)", "MC-DLA(B)", "DC-DLA(O)"},
			steps: func(base Point) []Point {
				var out []Point
				for _, gbps := range []float64{10, 15, 20, 25, 30, 40, 50, 75} {
					p := base
					p.LinkGBps = gbps
					out = append(out, p)
				}
				return out
			},
			check: noSlower,
		},
		{
			name:    "more memory-nodes never shrink the pool or slow an iteration",
			designs: []string{"MC-DLA(S)", "MC-DLA(L)", "MC-DLA(B)"},
			steps: func(base Point) []Point {
				var out []Point
				for n := 1; n <= DefaultWorkers; n++ {
					p := base
					p.MemNodes = n
					out = append(out, p)
				}
				return out
			},
			check: func(prev, next Point, rp, rn core.Result) string {
				dp, _ := prev.DesignPoint()
				dn, _ := next.DesignPoint()
				if model.PoolCapacity(dn) < model.PoolCapacity(dp) {
					return "pool shrank"
				}
				return noSlower(prev, next, rp, rn)
			},
		},
		{
			name:    "cDMA compression never slows an iteration or changes its traffic",
			designs: []string{"DC-DLA", "HC-DLA"},
			steps: func(base Point) []Point {
				on := base
				on.Compress = true
				return []Point{base, on}
			},
			check: func(prev, next Point, rp, rn core.Result) string {
				if rn.VirtTraffic != rp.VirtTraffic {
					return "virtualization traffic changed"
				}
				return noSlower(prev, next, rp, rn)
			},
		},
	} {
		t.Run(law.name, func(t *testing.T) {
			var walks [][]Point
			var jobs []runner.Job
			for _, d := range law.designs {
				for _, w := range workloads {
					for _, s := range strategies {
						walk := law.steps(Point{Design: d, Workload: w, Strategy: s, Batch: 512})
						for _, p := range walk {
							d, err := p.DesignPoint()
							if err != nil {
								t.Fatalf("%+v: %v", p, err)
							}
							jobs = append(jobs, p.Job(d))
						}
						walks = append(walks, walk)
					}
				}
			}
			res, err := eng.Run(context.Background(), jobs, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, walk := range walks {
				for i := 1; i < len(walk); i++ {
					if why := law.check(walk[i-1], walk[i], res[i-1], res[i]); why != "" {
						t.Errorf("%s: %+v → %+v: %s (iteration %v → %v)",
							law.name, walk[i-1], walk[i], why, res[i-1].IterationTime, res[i].IterationTime)
					}
				}
				res = res[len(walk):]
			}
		})
	}
}

// noSlower is the shared law: the stronger setting's iteration time is no
// longer than the weaker one's. When the varied resource is not the
// bottleneck the two runs sum the same spans in a different order, and the
// totals can differ in the last bit or two (a relative 3.5e-16 on MC-DLA(B)
// GoogLeNet model-parallel between 6 and 7 memory-nodes); the law allows
// that rounding and nothing more.
func noSlower(_, _ Point, rp, rn core.Result) string {
	const ulps = 1e-12
	if slower := (rn.IterationTime - rp.IterationTime).Seconds(); slower > ulps*rp.IterationTime.Seconds() {
		return fmt.Sprintf("iteration slowed by %g s", slower)
	}
	return ""
}
