package core

import (
	"math"
	"testing"

	"github.com/memcentric/mcdla/internal/accel"
	"github.com/memcentric/mcdla/internal/dnn"
	"github.com/memcentric/mcdla/internal/train"
	"github.com/memcentric/mcdla/internal/units"
)

// estimateNets is every Table III network plus the transformers and
// DenseNet: the graphs EstimateIteration and Simulate both price.
func estimateNets() []string {
	return append(dnn.BenchmarkNames(), append(dnn.TransformerNames(), "DenseNet-121")...)
}

func mustEstimate(t *testing.T, d Design, s *train.Schedule) IterationEstimate {
	t.Helper()
	est, err := EstimateIteration(d, s)
	if err != nil {
		t.Fatalf("%s × %s: %v", d.Name, s.Name, err)
	}
	return est
}

func closeTo(got, want units.Time, rel float64) bool {
	return math.Abs(float64(got-want)) <= rel*math.Abs(float64(want))
}

// TestCrossValidatesCoreEngine checks the event engine against the closed
// form where the two must agree: an oracle device on its own moves no
// virtualization bytes and runs no collective, so its iteration is its
// compute, forward plus BackwardFactor× forward, on every network.
func TestCrossValidatesCoreEngine(t *testing.T) {
	for _, net := range estimateNets() {
		s := train.MustBuild(net, 64, 1, train.DataParallel)
		d := NewDCDLAO(accel.Default(), 1)
		r := MustSimulate(d, s)
		est := mustEstimate(t, d, s)
		if est.Virt != 0 || est.Sync != 0 {
			t.Fatalf("%s: lone oracle estimate has virt %v, sync %v", net, est.Virt, est.Sync)
		}
		if !closeTo(r.IterationTime, est.Iteration, 1e-12) {
			t.Errorf("%s: engine %v vs closed form %v", net, r.IterationTime, est.Iteration)
		}
	}
}

// TestEstimateComputeMatchesEngine: the estimate's compute is the engine's
// compute tally, recompute bursts included, on every standard design ×
// network × strategy.
func TestEstimateComputeMatchesEngine(t *testing.T) {
	for _, d := range StandardDesigns() {
		for _, net := range dnn.BenchmarkNames() {
			for _, st := range []train.Strategy{train.DataParallel, train.ModelParallel} {
				s := train.MustBuild(net, paperBatch, paperWorkers, st)
				r := MustSimulate(d, s)
				est := mustEstimate(t, d, s)
				if !closeTo(est.Compute, r.Breakdown.Compute, 1e-12) {
					t.Errorf("%s %s %v: estimate compute %v, engine %v", d.Name, net, st, est.Compute, r.Breakdown.Compute)
				}
			}
		}
	}
}

// TestEstimateVirtMatchesEngineTraffic: the estimate moves the bytes the
// engine charges at the device's effective DMA rate; the oracle moves none.
func TestEstimateVirtMatchesEngineTraffic(t *testing.T) {
	for _, d := range StandardDesigns() {
		for _, net := range dnn.BenchmarkNames() {
			s := train.MustBuild(net, paperBatch, paperWorkers, train.DataParallel)
			r := MustSimulate(d, s)
			est := mustEstimate(t, d, s)
			if d.Oracle {
				if est.Virt != 0 {
					t.Errorf("%s %s: oracle estimate has virt %v", d.Name, net, est.Virt)
				}
				continue
			}
			// The engine rounds each tensor's scaled size to a byte, the
			// estimate the scaled total once: they differ by under a byte a
			// tensor.
			want := units.TransferTime(r.VirtTraffic, d.EffectiveVirtBW())
			if !closeTo(est.Virt, want, 1e-9) {
				t.Errorf("%s %s: estimate virt %v, engine traffic at the DMA rate %v", d.Name, net, est.Virt, want)
			}
		}
	}
}

// TestEstimateSyncOnlyWithPeers: a lone device prices no collective; eight
// data-parallel workers reduce their gradients every iteration.
func TestEstimateSyncOnlyWithPeers(t *testing.T) {
	dev := accel.Default()
	lone := mustEstimate(t, NewMCDLAB(dev, 1), train.MustBuild("ResNet", 64, 1, train.DataParallel))
	if lone.Sync != 0 {
		t.Fatalf("one worker: sync %v, want 0", lone.Sync)
	}
	node := mustEstimate(t, NewMCDLAB(dev, paperWorkers), train.MustBuild("ResNet", paperBatch, paperWorkers, train.DataParallel))
	if node.Sync <= 0 {
		t.Fatalf("eight workers: sync %v, want > 0", node.Sync)
	}
	if node.Iteration != max(node.Compute, node.Virt)+node.Sync {
		t.Fatalf("iteration %v != max(compute %v, virt %v) + sync %v", node.Iteration, node.Compute, node.Virt, node.Sync)
	}
}

// TestEstimateMonotoneInVirtBW: a faster backing store never lengthens the
// estimated iteration — the order the surrogate's design sweeps rely on.
func TestEstimateMonotoneInVirtBW(t *testing.T) {
	for _, net := range dnn.BenchmarkNames() {
		s := train.MustBuild(net, paperBatch, paperWorkers, train.DataParallel)
		d := NewDCDLA(accel.Default(), paperWorkers)
		prev := mustEstimate(t, d, s).Iteration
		for _, gbps := range []float64{24, 48, 96, 192, 384} {
			d.VirtBW = units.GBps(gbps)
			got := mustEstimate(t, d, s).Iteration
			if got > prev {
				t.Errorf("%s: %g GB/s estimate %v above the slower store's %v", net, gbps, got, prev)
			}
			prev = got
		}
		if o := mustEstimate(t, NewDCDLAO(accel.Default(), paperWorkers), s).Iteration; o > prev {
			t.Errorf("%s: oracle estimate %v above the fastest store's %v", net, o, prev)
		}
	}
}

// TestEstimateSocketSharingSlowsVirt: a shared host socket divides the DMA
// rate among its devices (§V-D), so the estimated virtualization time
// grows by the fan-in.
func TestEstimateSocketSharingSlowsVirt(t *testing.T) {
	s := train.MustBuild("VGG-E", paperBatch, paperWorkers, train.DataParallel)
	d := NewDCDLA(accel.Default(), paperWorkers)
	alone := mustEstimate(t, d, s)
	d.HostSocketShared = d.VirtBW
	shared := mustEstimate(t, d, s)
	if !closeTo(shared.Virt, alone.Virt*units.Time(d.DevicesPerSocket), 1e-12) {
		t.Fatalf("shared socket virt %v, want %d × %v", shared.Virt, d.DevicesPerSocket, alone.Virt)
	}
	if shared.Compute != alone.Compute || shared.Sync != alone.Sync {
		t.Fatal("socket sharing must only touch virtualization")
	}
}

func TestEstimateErrors(t *testing.T) {
	s := train.MustBuild("AlexNet", paperBatch, paperWorkers, train.DataParallel)
	if _, err := EstimateIteration(NewDCDLA(accel.Default(), 4), s); err == nil {
		t.Error("expected worker-mismatch error")
	}
	invalid := NewDCDLA(accel.Default(), paperWorkers)
	invalid.VirtBW = 0
	if _, err := EstimateIteration(invalid, s); err == nil {
		t.Error("expected invalid-design error")
	}
}
