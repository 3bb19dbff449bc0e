package vmem_test

import (
	"math"
	"testing"

	"github.com/memcentric/mcdla/internal/core"
	"github.com/memcentric/mcdla/internal/dnn"
	"github.com/memcentric/mcdla/internal/trace"
	"github.com/memcentric/mcdla/internal/train"
	"github.com/memcentric/mcdla/internal/vmem"
)

// TestRecomputeListedOnceChargedOnce: every tensor the plan recomputes sits
// in exactly one of Prepare's Recompute lists, and the kernel charges each
// once at its forward price, so the recompute charge is the sum of
// ForwardPrices over the recomputed layers, each counted once. The charge is
// read from the trace: one recompute span per recomputed layer, whose
// length (t+price)−t is the price to within an ulp of the span's end.
func TestRecomputeListedOnceChargedOnce(t *testing.T) {
	d, err := core.DesignByName("DC-DLA")
	if err != nil {
		t.Fatal(err)
	}
	recomputed := 0
	for _, name := range append(dnn.BenchmarkNames(), dnn.TransformerNames()...) {
		for _, strategy := range []train.Strategy{train.DataParallel, train.ModelParallel} {
			s := train.MustBuild(name, 64, 8, strategy)
			prep, err := s.Prepared(false)
			if err != nil {
				t.Fatal(err)
			}
			listed := make(map[int]int)
			for layer := range s.Graph.Layers {
				for _, id := range prep.Recompute(layer) {
					listed[id]++
				}
			}
			for id, tp := range prep.Plan.Tensors {
				if tp.Action == vmem.Recompute && listed[id] != 1 {
					t.Errorf("%s %v: recompute tensor %d sits in %d Recompute lists", name, strategy, id, listed[id])
				}
			}
			for id := range listed {
				if a := prep.Plan.Tensors[id].Action; a != vmem.Recompute {
					t.Errorf("%s %v: layer %d is listed for recompute, planned %v", name, strategy, id, a)
				}
			}

			tr := &trace.Log{}
			if _, err := core.SimulateTraced(d, s, tr); err != nil {
				t.Fatal(err)
			}
			spans := make(map[string]trace.Span)
			for _, sp := range tr.Spans {
				if sp.Category != trace.Recompute {
					continue
				}
				if _, dup := spans[sp.Name]; dup {
					t.Errorf("%s %v: %s charged twice", name, strategy, sp.Name)
				}
				spans[sp.Name] = sp
			}
			fwd := core.ForwardPrices(d.Device, s)
			var charge, want float64
			for id := range s.Graph.Layers {
				if listed[id] == 0 {
					continue
				}
				want += float64(fwd[id])
				sp, ok := spans[s.Graph.Layer(id).Name+"/recompute"]
				if !ok {
					t.Errorf("%s %v: layer %d is listed but never recomputed", name, strategy, id)
					continue
				}
				charge += float64(sp.Duration())
				ulp := math.Nextafter(float64(sp.End), math.Inf(1)) - float64(sp.End)
				if diff := math.Abs(float64(sp.Duration() - fwd[id])); diff > ulp {
					t.Errorf("%s %v: %s lasts %v, forward price %v", name, strategy, sp.Name, sp.Duration(), fwd[id])
				}
			}
			if len(spans) != len(listed) {
				t.Errorf("%s %v: %d recompute spans for %d recomputed layers", name, strategy, len(spans), len(listed))
			}
			if tol := 1e-9 * want; math.Abs(charge-want) > tol {
				t.Errorf("%s %v: recompute charge %g s, forward prices sum to %g s", name, strategy, charge, want)
			}
			recomputed += len(listed)
		}
	}
	if recomputed == 0 {
		t.Fatal("no network recomputes anything")
	}
}
