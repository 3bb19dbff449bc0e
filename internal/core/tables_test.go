package core

import (
	"slices"
	"testing"

	"github.com/memcentric/mcdla/internal/dnn"
	"github.com/memcentric/mcdla/internal/train"
)

// TestBuildTablesStayReadOnly guards the tables the builds share. A
// schedule's GEMM shards and sync ops are windows of one table each, a
// data-parallel schedule reads the graph's own GEMM lists, and the
// attention layers of one graph share their per-head lists. On every
// registry network, one graph carries a data- and a model-parallel
// schedule, and each is simulated on a virtualized design and on the
// oracle one, so both memory plans run too. Every window must have cap ==
// len, so that an append to one copies instead of writing into its
// neighbour; the graph's GEMMs must read the same after all of it; and
// layer names must be unique per graph, because a single-layer weight group
// is named after its layer.
func TestBuildTablesStayReadOnly(t *testing.T) {
	const batch, workers = 64, paperWorkers
	designs := make([]Design, 0, 2)
	for _, name := range []string{"MC-DLA(B)", "DC-DLA(O)"} {
		d, err := DesignByName(name)
		if err != nil {
			t.Fatal(err)
		}
		designs = append(designs, d)
	}
	for _, name := range append(dnn.BenchmarkNames(), dnn.TransformerNames()...) {
		net, err := train.NewNetwork(name, batch, 0)
		if err != nil {
			t.Fatal(err)
		}
		g := net.Graph
		names := make(map[string]bool, len(g.Layers))
		before := make([][]dnn.GEMM, len(g.Layers))
		for id, l := range g.Layers {
			if names[l.Name] {
				t.Errorf("%s: layer name %q repeats", name, l.Name)
			}
			names[l.Name] = true
			before[id] = slices.Clone(l.GEMMs)
		}
		for _, sc := range []struct {
			strategy    train.Strategy
			globalBatch int
		}{{train.DataParallel, batch * workers}, {train.ModelParallel, batch}} {
			s, err := train.BuildOn(net, sc.globalBatch, workers, sc.strategy, train.FP16)
			if err != nil {
				t.Fatal(err)
			}
			for id := range g.Layers {
				gemms, fwd, bwd := s.Work(id).GEMMs, s.FwdSync(id), s.BwdSync(id)
				if cap(gemms) != len(gemms) || cap(fwd) != len(fwd) || cap(bwd) != len(bwd) {
					t.Errorf("%s %v layer %d: GEMMs %d/%d, FwdSync %d/%d, BwdSync %d/%d (len/cap)", name, sc.strategy, id,
						len(gemms), cap(gemms), len(fwd), cap(fwd), len(bwd), cap(bwd))
				}
			}
			for _, d := range designs {
				if _, err := Simulate(d, s); err != nil {
					t.Fatalf("%s %v on %s: %v", name, sc.strategy, d.Name, err)
				}
				prep, err := s.Prepared(d.Oracle)
				if err != nil {
					t.Fatal(err)
				}
				for id := range g.Layers {
					off, rec := prep.Offloads(id), prep.Recompute(id)
					if cap(off) != len(off) || cap(rec) != len(rec) {
						t.Errorf("%s oracle=%v layer %d: Offloads %d/%d, Recompute %d/%d (len/cap)", name, d.Oracle, id,
							len(off), cap(off), len(rec), cap(rec))
					}
				}
			}
		}
		for id, l := range g.Layers {
			if !slices.Equal(l.GEMMs, before[id]) {
				t.Errorf("%s layer %s: GEMMs %v after the schedules, %v before", name, l.Name, l.GEMMs, before[id])
			}
		}
	}
}
