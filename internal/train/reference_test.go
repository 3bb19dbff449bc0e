package train

import (
	"fmt"
	"slices"
	"testing"

	"github.com/memcentric/mcdla/internal/collective"
	"github.com/memcentric/mcdla/internal/dnn"
	"github.com/memcentric/mcdla/internal/units"
)

// refWork is one layer's execution record as the reference builders below
// materialize it: the derived LayerWork together with the layer's sync
// lists.
type refWork struct {
	LayerWork
	fwd, bwd []SyncOp
}

// referenceWork builds the per-layer record table a schedule once stored,
// with the builders' original per-layer formulas: every byte count scaled by
// ActScale, the dW payload by DWScale, one dW all-reduce per weight group's
// lead layer over several data-parallel workers, and under model parallel
// a GEMM layer's shards, 1/workers of its weights, an X all-gather when a
// later layer consumes it and a dX all-reduce of its inputs. Schedule.Work,
// FwdSync and BwdSync are checked against it.
func referenceWork(g *dnn.Graph, workers int, strategy Strategy, prec Precision) ([]refWork, error) {
	act, dw, div := prec.ActScale(), prec.DWScale(), int64(workers)
	consumed := make([]bool, len(g.Layers))
	for _, l := range g.Layers {
		for _, in := range l.Inputs {
			consumed[in] = true
		}
	}
	out := make([]refWork, len(g.Layers))
	for _, l := range g.Layers {
		var in int64
		for _, id := range l.Inputs {
			in += g.Layer(id).OutBytes()
		}
		w := refWork{LayerWork: LayerWork{
			WeightBytes: act * l.WeightBytes(),
			InputBytes:  act * in,
			OutputBytes: act * l.OutBytes(),
		}}
		switch strategy {
		case DataParallel:
			w.GEMMs = l.GEMMs
			if workers > 1 && l.GroupLead() {
				w.bwd = []SyncOp{{Op: collective.AllReduce, Bytes: units.Bytes(dw * l.WeightBytes()), Tag: "dW"}}
			}
		case ModelParallel:
			if len(l.GEMMs) == 0 {
				break
			}
			for _, gm := range l.GEMMs {
				if gm.N%div != 0 {
					return nil, fmt.Errorf("layer %s: output dim %d not divisible by %d", l.Name, gm.N, workers)
				}
				w.GEMMs = append(w.GEMMs, dnn.GEMM{M: gm.M, N: gm.N / div, K: gm.K})
			}
			w.WeightBytes /= div
			if consumed[l.ID] {
				w.fwd = []SyncOp{{Op: collective.AllGather, Bytes: units.Bytes(act * l.OutBytes()), Tag: "X", Blocking: true}}
			}
			w.bwd = []SyncOp{{Op: collective.AllReduce, Bytes: units.Bytes(w.InputBytes), Tag: "dX", Blocking: true}}
		}
		out[l.ID] = w
	}
	return out, nil
}

// checkAgainstReference compares every layer's derived record and sync
// windows with the reference table field by field, and requires every
// window to be cap-limited.
func checkAgainstReference(t *testing.T, label string, s *Schedule) {
	t.Helper()
	if err := s.Validate(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	ref, err := referenceWork(s.Graph, s.Workers, s.Strategy, s.Precision)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for id, want := range ref {
		got, fwd, bwd := s.Work(id), s.FwdSync(id), s.BwdSync(id)
		if !slices.Equal(got.GEMMs, want.GEMMs) || got.WeightBytes != want.WeightBytes ||
			got.InputBytes != want.InputBytes || got.OutputBytes != want.OutputBytes {
			t.Fatalf("%s layer %d: Work %+v, reference %+v", label, id, got, want.LayerWork)
		}
		if !slices.Equal(fwd, want.fwd) || !slices.Equal(bwd, want.bwd) {
			t.Fatalf("%s layer %d: syncs %+v / %+v, reference %+v / %+v", label, id, fwd, bwd, want.fwd, want.bwd)
		}
		if cap(got.GEMMs) != len(got.GEMMs) || cap(fwd) != len(fwd) || cap(bwd) != len(bwd) {
			t.Fatalf("%s layer %d: GEMMs %d/%d, FwdSync %d/%d, BwdSync %d/%d (len/cap)", label, id,
				len(got.GEMMs), cap(got.GEMMs), len(fwd), cap(fwd), len(bwd), cap(bwd))
		}
	}
}

// TestDerivedWorkMatchesReference: on every registry network, both
// strategies, every precision and one or eight workers, the records a
// schedule derives from its graph equal the reference table's.
func TestDerivedWorkMatchesReference(t *testing.T) {
	const globalBatch = 64
	nets := map[string]*Network{}
	network := func(name string, batch int) *Network {
		key := fmt.Sprintf("%s/%d", name, batch)
		if nets[key] == nil {
			net, err := NewNetwork(name, batch, 0)
			if err != nil {
				t.Fatal(err)
			}
			nets[key] = net
		}
		return nets[key]
	}
	for _, name := range append(dnn.BenchmarkNames(), dnn.TransformerNames()...) {
		for _, workers := range []int{1, paperWorkers} {
			for _, strategy := range []Strategy{DataParallel, ModelParallel} {
				batch, err := DeviceBatch(globalBatch, workers, strategy)
				if err != nil {
					t.Fatal(err)
				}
				net := network(name, batch)
				for _, prec := range Precisions() {
					s, err := BuildOn(net, globalBatch, workers, strategy, prec)
					if err != nil {
						t.Fatal(err)
					}
					checkAgainstReference(t, fmt.Sprintf("%s %v %s workers=%d", name, strategy, prec, workers), s)
				}
			}
		}
	}
}

// customGraph is a hand-built DAG the registry does not cover in one graph:
// two convolutions joined by a multi-input Concat, then three recurrent
// cells sharing one weight group and a second cell group of one layer.
func customGraph(batch int) *dnn.Graph {
	b := dnn.NewBuilder("custom", batch)
	x := b.Input(3, 16, 16)
	left := b.Conv("left", x, 16, 3, 1, 1)
	right := b.Conv("right", x, 8, 1, 1, 0)
	relu := b.ReLU("relu", left)
	cat := b.Concat("cat", relu, right, x)
	pool := b.Pool("pool", cat, 2, 2, 0)
	h := b.FC("proj", pool, 32)
	for step := range 3 {
		h = b.LSTMCell(fmt.Sprintf("cell%d", step), h, 16, "lstm")
	}
	h = b.RNNCell("head", h, 8, "head")
	b.Softmax("prob", b.FC("out", h, 8))
	return b.FinishRecurrent(3)
}

func TestCustomGraphWorkMatchesReference(t *testing.T) {
	const globalBatch = 64
	for _, workers := range []int{1, paperWorkers} {
		for _, strategy := range []Strategy{DataParallel, ModelParallel} {
			batch, err := DeviceBatch(globalBatch, workers, strategy)
			if err != nil {
				t.Fatal(err)
			}
			g := customGraph(batch)
			for _, prec := range Precisions() {
				s, err := BuildGraph(g, globalBatch, workers, strategy, prec)
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstReference(t, fmt.Sprintf("custom %v %s workers=%d", strategy, prec, workers), s)
			}
			if strategy == DataParallel && workers > 1 {
				// One dW reduction per weight group: the shared LSTM
				// group reduces once, at its first cell.
				s, err := BuildGraph(g, globalBatch, workers, strategy, FP16)
				if err != nil {
					t.Fatal(err)
				}
				reductions := 0
				for id := range g.Layers {
					reductions += len(s.BwdSync(id))
				}
				if reductions != s.WeightGroups() {
					t.Errorf("custom: %d dW reductions for %d weight groups", reductions, s.WeightGroups())
				}
			}
		}
	}
}
