package train

import (
	"testing"
	"unsafe"

	"github.com/memcentric/mcdla/internal/accel"
	"github.com/memcentric/mcdla/internal/collective"
	"github.com/memcentric/mcdla/internal/dnn"
	"github.com/memcentric/mcdla/internal/units"
)

const (
	paperBatch   = 512
	paperWorkers = 8
)

func TestBuildAllBenchmarksBothStrategies(t *testing.T) {
	for _, name := range dnn.BenchmarkNames() {
		for _, strat := range []Strategy{DataParallel, ModelParallel} {
			s, err := BuildSeq(name, paperBatch, paperWorkers, strat, 0, FP16)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, strat, err)
			}
			if err := s.Validate(); err != nil {
				t.Errorf("%s/%v: %v", name, strat, err)
			}
		}
	}
}

func TestDataParallelBatchSplit(t *testing.T) {
	s := MustBuild("AlexNet", paperBatch, paperWorkers, DataParallel)
	if s.Graph.Batch != 64 {
		t.Fatalf("device batch = %d, want 64", s.Graph.Batch)
	}
}

func TestModelParallelKeepsFullBatch(t *testing.T) {
	s := MustBuild("AlexNet", paperBatch, paperWorkers, ModelParallel)
	if s.Graph.Batch != paperBatch {
		t.Fatalf("device batch = %d, want %d", s.Graph.Batch, paperBatch)
	}
}

func TestPerDeviceComputeEqualAcrossStrategies(t *testing.T) {
	// 1/8 of the batch with the full model (DP) equals the full batch with
	// 1/8 of the model (MP) in MAC count.
	for _, name := range dnn.BenchmarkNames() {
		dp := MustBuild(name, paperBatch, paperWorkers, DataParallel)
		mp := MustBuild(name, paperBatch, paperWorkers, ModelParallel)
		if computeMACs(dp) != computeMACs(mp) {
			t.Errorf("%s: DP MACs %d != MP MACs %d", name, computeMACs(dp), computeMACs(mp))
		}
	}
}

// computeMACs totals the device's forward MAC count for the iteration.
func computeMACs(s *Schedule) int64 {
	var total int64
	for id := range s.Graph.Layers {
		for _, g := range s.Work(id).GEMMs {
			total += g.MACs()
		}
	}
	return total
}

func TestDataParallelSyncIsWeights(t *testing.T) {
	// DP synchronization is exactly the model's unique parameter bytes
	// (dW all-reduce per weight group).
	for _, name := range dnn.BenchmarkNames() {
		s := MustBuild(name, paperBatch, paperWorkers, DataParallel)
		sync := s.SyncBytes()
		if got, want := sync["dW"], s.Graph.TotalWeightBytes(); got != want {
			t.Errorf("%s: dW sync %d != weight bytes %d", name, got, want)
		}
		if sync["X"] != 0 || sync["dX"] != 0 {
			t.Errorf("%s: DP must not gather feature maps", name)
		}
	}
}

func TestDataParallelSyncsNonBlocking(t *testing.T) {
	s := MustBuild("VGG-E", paperBatch, paperWorkers, DataParallel)
	for id := range s.Graph.Layers {
		for _, op := range s.BwdSync(id) {
			if op.Blocking {
				t.Fatal("DP dW all-reduce must be non-blocking (overlapped)")
			}
			if op.Op != collective.AllReduce {
				t.Fatalf("DP sync op = %v, want all-reduce", op.Op)
			}
		}
		if len(s.FwdSync(id)) != 0 {
			t.Fatal("DP must have no forward syncs")
		}
	}
}

func TestRecurrentWeightsReduceOnce(t *testing.T) {
	// RNN weight groups are shared across timesteps: exactly one dW
	// all-reduce per iteration, issued at the earliest cell.
	s := MustBuild("RNN-GRU", paperBatch, paperWorkers, DataParallel)
	count := 0
	firstCell := -1
	for _, l := range s.Graph.Layers {
		if l.Kind == dnn.GRUCell && firstCell < 0 {
			firstCell = l.ID
		}
	}
	for id := range s.Graph.Layers {
		if bwd := s.BwdSync(id); len(bwd) > 0 {
			count += len(bwd)
			if id != firstCell {
				t.Fatalf("dW reduce at layer %d, want first cell %d", id, firstCell)
			}
		}
	}
	if count != 1 {
		t.Fatalf("dW reduce count = %d, want 1", count)
	}
}

func TestModelParallelSyncStructure(t *testing.T) {
	s := MustBuild("VGG-E", paperBatch, paperWorkers, ModelParallel)
	for id, l := range s.Graph.Layers {
		fwd, bwd := s.FwdSync(id), s.BwdSync(id)
		if len(l.GEMMs) > 0 {
			// Major layers gather X forward (except terminal) and reduce
			// dX backward, both blocking.
			if len(bwd) != 1 || bwd[0].Op != collective.AllReduce || !bwd[0].Blocking {
				t.Fatalf("layer %s: bad backward sync %+v", l.Name, bwd)
			}
			if bwd[0].Tag != "dX" {
				t.Fatalf("layer %s: backward sync tag %q", l.Name, bwd[0].Tag)
			}
		} else if len(fwd) != 0 || len(bwd) != 0 {
			t.Fatalf("elementwise layer %s has syncs", l.Name)
		}
	}
	sync := s.SyncBytes()
	if sync["X"] == 0 || sync["dX"] == 0 {
		t.Fatal("MP must move X and dX")
	}
	if sync["dW"] != 0 {
		t.Fatal("MP must not reduce dW (weight slices are disjoint)")
	}
}

func TestModelParallelShardsGEMMs(t *testing.T) {
	mp := MustBuild("AlexNet", paperBatch, paperWorkers, ModelParallel)
	for i, l := range mp.Graph.Layers {
		if len(l.GEMMs) == 0 {
			continue
		}
		w := mp.Work(i)
		if w.GEMMs[0].N*int64(paperWorkers) != l.GEMMs[0].N {
			t.Fatalf("layer %s: sharded N=%d vs full N=%d", l.Name, w.GEMMs[0].N, l.GEMMs[0].N)
		}
		if w.WeightBytes*int64(paperWorkers) != l.WeightBytes() {
			t.Fatalf("layer %s: weight shard %d vs full %d", l.Name, w.WeightBytes, l.WeightBytes())
		}
	}
}

func TestModelParallelSyncHeavierThanDataParallel(t *testing.T) {
	// The paper's central workload observation (§II-C, §V-A): model-parallel
	// training synchronizes far more data than data-parallel training for
	// CNNs (feature maps vs weights).
	for _, name := range dnn.CNNNames() {
		dp := MustBuild(name, paperBatch, paperWorkers, DataParallel)
		mp := MustBuild(name, paperBatch, paperWorkers, ModelParallel)
		var dpTotal, mpTotal int64
		for _, b := range dp.SyncBytes() {
			dpTotal += b
		}
		for _, b := range mp.SyncBytes() {
			mpTotal += b
		}
		if mpTotal <= dpTotal {
			t.Errorf("%s: MP sync %d not heavier than DP sync %d", name, mpTotal, dpTotal)
		}
	}
}

func TestTerminalLayerSkipsGather(t *testing.T) {
	s := MustBuild("AlexNet", paperBatch, paperWorkers, ModelParallel)
	// The softmax consumes fc8; fc8 has consumers so it gathers, but the
	// softmax itself (no GEMM) must not. Verify no FwdSync on any layer
	// without consumers, and one on every consumed GEMM layer.
	consumed := make([]bool, len(s.Graph.Layers))
	for _, l := range s.Graph.Layers {
		for _, in := range l.Inputs {
			consumed[in] = true
		}
	}
	for id, l := range s.Graph.Layers {
		fwd := s.FwdSync(id)
		if !consumed[id] && len(fwd) > 0 {
			t.Fatalf("terminal layer %d has forward sync", id)
		}
		if consumed[id] && len(l.GEMMs) > 0 && len(fwd) != 1 {
			t.Fatalf("consumed GEMM layer %d has %d forward syncs, want 1", id, len(fwd))
		}
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := BuildSeq("AlexNet", 0, 8, DataParallel, 0, FP16); err == nil {
		t.Error("expected error for zero batch")
	}
	if _, err := BuildSeq("AlexNet", 512, 0, DataParallel, 0, FP16); err == nil {
		t.Error("expected error for zero workers")
	}
	if _, err := BuildSeq("AlexNet", 10, 8, DataParallel, 0, FP16); err == nil {
		t.Error("expected error for indivisible batch")
	}
	if _, err := BuildSeq("NoSuchNet", 512, 8, DataParallel, 0, FP16); err == nil {
		t.Error("expected error for unknown benchmark")
	}
	if _, err := BuildSeq("AlexNet", 512, 8, Strategy(9), 0, FP16); err == nil {
		t.Error("expected error for unknown strategy")
	}
	// AlexNet fc8 has 1000 outputs: not divisible by 7 workers.
	if _, err := BuildSeq("AlexNet", 512, 7, ModelParallel, 0, FP16); err == nil {
		t.Error("expected error for indivisible model split")
	}
}

func TestStrategyStrings(t *testing.T) {
	if DataParallel.String() != "data-parallel" || ModelParallel.String() != "model-parallel" {
		t.Fatal("strategy strings wrong")
	}
	if Strategy(7).String() != "Strategy(7)" {
		t.Fatal("unknown strategy string wrong")
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustBuild("NoSuchNet", 512, 8, DataParallel)
}

// Validate holds the collective shape the event engines' iteration kernel
// relies on: forward ops block, and a backward pass carries at most one op.
// Each case mutates the op table or its bounds at the first layer that has
// both a forward and a backward op; the bound cases keep the bounds a
// rising cover of the table, so only the shape checks can catch them.
func TestValidateRejectsUnsupportedSyncShapes(t *testing.T) {
	for _, c := range []struct {
		name   string
		mutate func(s *Schedule, id int)
	}{
		// The layer's forward op becomes a second backward op.
		{"two backward ops", func(s *Schedule, id int) { s.opBound[2*id+1]-- }},
		{"non-blocking forward op", func(s *Schedule, id int) { s.ops[s.opBound[2*id]].Blocking = false }},
		{"negative forward bytes", func(s *Schedule, id int) { s.ops[s.opBound[2*id]].Bytes = -1 }},
		{"negative backward bytes", func(s *Schedule, id int) { s.ops[s.opBound[2*id+1]].Bytes = -1 }},
		{"bounds miss a layer", func(s *Schedule, id int) { s.opBound = s.opBound[:len(s.opBound)-1] }},
		{"bounds fall", func(s *Schedule, id int) { s.opBound[2*id+1] = s.opBound[2*id+2] + 1 }},
		{"shard bounds miss a layer", func(s *Schedule, id int) { s.shardBound = s.shardBound[1:] }},
	} {
		s := MustBuild("AlexNet", paperBatch, paperWorkers, ModelParallel)
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		for id := range s.Graph.Layers {
			if len(s.FwdSync(id)) > 0 && len(s.BwdSync(id)) > 0 {
				c.mutate(s, id)
				break
			}
		}
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the schedule", c.name)
		}
	}
}

// TestForwardPricesBoundedAndEvictOldest: a schedule keeps at most
// priceTables price tables. A key past the bound evicts the oldest, which
// is priced again when asked for, while the others stay shared.
func TestForwardPricesBoundedAndEvictOldest(t *testing.T) {
	s := MustBuild("AlexNet", paperBatch, paperWorkers, DataParallel)
	priced := 0
	price := func(*dnn.Layer, LayerWork) units.Time { priced++; return 1 }
	key := func(i int) accel.Config {
		c := accel.Default().PriceKey()
		c.MemBW = units.GBps(float64(100 * (i + 1)))
		return c
	}
	layers := len(s.Graph.Layers)
	for i := 0; i <= priceTables; i++ {
		s.ForwardPrices(key(i), price)
	}
	if want := (priceTables + 1) * layers; priced != want || len(s.prices) != priceTables {
		t.Fatalf("%d keys: %d prices and %d tables, want %d and %d", priceTables+1, priced, len(s.prices), want, priceTables)
	}
	for i := 1; i <= priceTables; i++ {
		s.ForwardPrices(key(i), price)
	}
	if want := (priceTables + 1) * layers; priced != want {
		t.Fatalf("the %d most recent keys priced %d layers again, want none", priceTables, priced-want)
	}
	s.ForwardPrices(key(0), price)
	if want := (priceTables + 2) * layers; priced != want {
		t.Fatalf("the evicted key priced %d layers, want %d", priced-(priceTables+1)*layers, layers)
	}
}

// TestSyncOpIs32Bytes: the op table holds one SyncOp per collective, with
// its one-byte fields packed after the string.
func TestSyncOpIs32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(SyncOp{}); n != 32 {
		t.Errorf("SyncOp is %d bytes, want 32", n)
	}
}
