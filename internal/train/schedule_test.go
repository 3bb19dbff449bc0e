package train

import (
	"testing"

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
			s, err := Build(name, paperBatch, paperWorkers, strat)
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
	if s.DeviceBatch() != 64 {
		t.Fatalf("device batch = %d, want 64", s.DeviceBatch())
	}
}

func TestModelParallelKeepsFullBatch(t *testing.T) {
	s := MustBuild("AlexNet", paperBatch, paperWorkers, ModelParallel)
	if s.DeviceBatch() != paperBatch {
		t.Fatalf("device batch = %d, want %d", s.DeviceBatch(), paperBatch)
	}
}

func TestPerDeviceComputeEqualAcrossStrategies(t *testing.T) {
	// 1/8 of the batch with the full model (DP) equals the full batch with
	// 1/8 of the model (MP) in MAC count.
	for _, name := range dnn.BenchmarkNames() {
		dp := MustBuild(name, paperBatch, paperWorkers, DataParallel)
		mp := MustBuild(name, paperBatch, paperWorkers, ModelParallel)
		if dp.ComputeMACs() != mp.ComputeMACs() {
			t.Errorf("%s: DP MACs %d != MP MACs %d", name, dp.ComputeMACs(), mp.ComputeMACs())
		}
	}
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
	for _, w := range s.Work {
		for _, op := range w.BwdSync {
			if op.Blocking {
				t.Fatal("DP dW all-reduce must be non-blocking (overlapped)")
			}
			if op.Op != collective.AllReduce {
				t.Fatalf("DP sync op = %v, want all-reduce", op.Op)
			}
		}
		if len(w.FwdSync) != 0 {
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
	for _, w := range s.Work {
		if len(w.BwdSync) > 0 {
			count += len(w.BwdSync)
			if w.LayerID != firstCell {
				t.Fatalf("dW reduce at layer %d, want first cell %d", w.LayerID, firstCell)
			}
		}
	}
	if count != 1 {
		t.Fatalf("dW reduce count = %d, want 1", count)
	}
}

func TestModelParallelSyncStructure(t *testing.T) {
	s := MustBuild("VGG-E", paperBatch, paperWorkers, ModelParallel)
	for _, w := range s.Work {
		l := s.Graph.Layer(w.LayerID)
		if len(l.GEMMs) > 0 {
			// Major layers gather X forward (except terminal) and reduce
			// dX backward, both blocking.
			if len(w.BwdSync) != 1 || w.BwdSync[0].Op != collective.AllReduce || !w.BwdSync[0].Blocking {
				t.Fatalf("layer %s: bad backward sync %+v", l.Name, w.BwdSync)
			}
			if w.BwdSync[0].Tag != "dX" {
				t.Fatalf("layer %s: backward sync tag %q", l.Name, w.BwdSync[0].Tag)
			}
		} else if len(w.FwdSync) != 0 || len(w.BwdSync) != 0 {
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
	dp := MustBuild("AlexNet", paperBatch, paperWorkers, DataParallel)
	mp := MustBuild("AlexNet", paperBatch, paperWorkers, ModelParallel)
	for i, w := range mp.Work {
		l := mp.Graph.Layer(i)
		if len(l.GEMMs) == 0 {
			continue
		}
		if w.GEMMs[0].N*int64(paperWorkers) != l.GEMMs[0].N {
			t.Fatalf("layer %s: sharded N=%d vs full N=%d", l.Name, w.GEMMs[0].N, l.GEMMs[0].N)
		}
		if w.WeightBytes*int64(paperWorkers) != l.WeightBytes() {
			t.Fatalf("layer %s: weight shard %d vs full %d", l.Name, w.WeightBytes, l.WeightBytes())
		}
	}
	_ = dp
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
	// without consumers.
	cons := s.Graph.Consumers()
	for _, w := range s.Work {
		if len(cons[w.LayerID]) == 0 && len(w.FwdSync) > 0 {
			t.Fatalf("terminal layer %d has forward sync", w.LayerID)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build("AlexNet", 0, 8, DataParallel); err == nil {
		t.Error("expected error for zero batch")
	}
	if _, err := Build("AlexNet", 512, 0, DataParallel); err == nil {
		t.Error("expected error for zero workers")
	}
	if _, err := Build("AlexNet", 10, 8, DataParallel); err == nil {
		t.Error("expected error for indivisible batch")
	}
	if _, err := Build("NoSuchNet", 512, 8, DataParallel); err == nil {
		t.Error("expected error for unknown benchmark")
	}
	if _, err := Build("AlexNet", 512, 8, Strategy(9)); err == nil {
		t.Error("expected error for unknown strategy")
	}
	// AlexNet fc8 has 1000 outputs: not divisible by 7 workers.
	if _, err := Build("AlexNet", 512, 7, ModelParallel); err == nil {
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
func TestValidateRejectsUnsupportedSyncShapes(t *testing.T) {
	for _, c := range []struct {
		name   string
		mutate func(w *LayerWork)
	}{
		{"two backward ops", func(w *LayerWork) { w.BwdSync = append(w.BwdSync, w.BwdSync[0]) }},
		{"non-blocking forward op", func(w *LayerWork) { w.FwdSync[0].Blocking = false }},
		{"negative backward bytes", func(w *LayerWork) { w.BwdSync[0].Bytes = -1 }},
	} {
		s := MustBuild("AlexNet", paperBatch, paperWorkers, ModelParallel)
		for i := range s.Work {
			if len(s.Work[i].FwdSync) > 0 && len(s.Work[i].BwdSync) > 0 {
				c.mutate(&s.Work[i])
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
