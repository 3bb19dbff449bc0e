package core

import (
	"testing"
	"testing/quick"

	"github.com/memcentric/mcdla/internal/accel"
	"github.com/memcentric/mcdla/internal/dnn"
	"github.com/memcentric/mcdla/internal/train"
	"github.com/memcentric/mcdla/internal/units"
)

// Property: for any workload and batch size, the oracle is never slower
// than any buildable design, and the MC-DLA variants order
// (B) ≤ (L) ≤ (S) in iteration time (monotone virtualization bandwidth with
// identical or better sync).
func TestPropertyDesignOrdering(t *testing.T) {
	workloads := []string{"AlexNet", "GoogLeNet", "RNN-LSTM-1"}
	f := func(raw uint8, strategyRaw bool) bool {
		batch := (int(raw%8) + 1) * 64 // 64..512, divisible by 8 workers
		strategy := train.DataParallel
		if strategyRaw {
			strategy = train.ModelParallel
		}
		for _, net := range workloads {
			s, err := train.BuildSeq(net, batch, paperWorkers, strategy, 0, train.FP16)
			if err != nil {
				return false
			}
			times := map[string]float64{}
			for _, d := range StandardDesigns() {
				r, err := Simulate(d, s)
				if err != nil {
					return false
				}
				times[d.Name] = r.IterationTime.Seconds()
			}
			for _, dn := range []string{"DC-DLA", "HC-DLA", "MC-DLA(S)", "MC-DLA(L)", "MC-DLA(B)"} {
				if times["DC-DLA(O)"] > times[dn]*1.0001 {
					return false
				}
			}
			if times["MC-DLA(B)"] > times["MC-DLA(L)"]*1.0001 {
				return false
			}
			if times["MC-DLA(L)"] > times["MC-DLA(S)"]*1.0001 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// Property: iteration time is monotone non-increasing in virtualization
// bandwidth — more DMA throughput can never hurt.
func TestPropertyMonotoneInVirtBW(t *testing.T) {
	s := train.MustBuild("VGG-E", 512, paperWorkers, train.DataParallel)
	f := func(raw uint8) bool {
		low := units.GBps(float64(raw%40) + 4)
		high := units.Bandwidth(2 * float64(low))
		a := NewDCDLA(accel.Default(), paperWorkers)
		a.VirtBW = low
		b := a
		b.VirtBW = high
		ra, err := Simulate(a, s)
		if err != nil {
			return false
		}
		rb, err := Simulate(b, s)
		if err != nil {
			return false
		}
		return rb.IterationTime <= ra.IterationTime*1.0001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: iteration time scales (weak sense) with batch: doubling the
// global batch at fixed workers never makes the iteration faster, and at
// most slightly more than doubles it (fixed collectives amortize).
func TestPropertyBatchScaling(t *testing.T) {
	d := NewMCDLAB(accel.Default(), paperWorkers)
	f := func(raw uint8) bool {
		batch := (int(raw%8) + 1) * 64
		s1 := train.MustBuild("ResNet", batch, paperWorkers, train.DataParallel)
		s2 := train.MustBuild("ResNet", 2*batch, paperWorkers, train.DataParallel)
		r1 := MustSimulate(d, s1)
		r2 := MustSimulate(d, s2)
		if r2.IterationTime < r1.IterationTime {
			return false
		}
		return r2.IterationTime.Seconds() <= 2.2*r1.IterationTime.Seconds()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: virtualization traffic is identical across the non-oracle
// designs for a given schedule — the designs differ in how fast they move
// the stash, never in what they move.
func TestPropertyTrafficInvariantAcrossDesigns(t *testing.T) {
	for _, strategy := range []train.Strategy{train.DataParallel, train.ModelParallel} {
		s := train.MustBuild("GoogLeNet", 512, paperWorkers, strategy)
		var want units.Bytes
		for i, d := range StandardDesigns() {
			if d.Oracle {
				continue
			}
			r := MustSimulate(d, s)
			if i == 0 {
				want = r.VirtTraffic
			} else if r.VirtTraffic != want {
				t.Fatalf("%v/%s: traffic %v differs from %v", strategy, d.Name, r.VirtTraffic, want)
			}
		}
	}
}

// The gen4 and faster-device sensitivity variants must behave sanely:
// gen4 strictly improves DC-DLA; a TPUv2-class device shortens oracle
// iterations.
func TestSensitivityVariantsSane(t *testing.T) {
	s := train.MustBuild("VGG-E", 512, paperWorkers, train.DataParallel)
	dc := MustSimulate(NewDCDLA(accel.Default(), paperWorkers), s)
	g4 := MustSimulate(NewDCDLAGen4(accel.Default(), paperWorkers), s)
	if g4.IterationTime >= dc.IterationTime {
		t.Fatalf("gen4 (%v) must beat gen3 (%v)", g4.IterationTime, dc.IterationTime)
	}
	volta := MustSimulate(NewDCDLAO(accel.Default(), paperWorkers), s)
	tpu := MustSimulate(NewDCDLAO(accel.TPUv2Class(), paperWorkers), s)
	if tpu.IterationTime >= volta.IterationTime {
		t.Fatalf("TPUv2-class oracle (%v) must beat Volta oracle (%v)", tpu.IterationTime, volta.IterationTime)
	}
}

// TestOverlapBounds checks the device-iteration kernel's overlap argument
// (vDNN's) on the node engine: the iteration never beats perfect overlap of
// compute with the virtualization traffic at its DMA rate, and never exceeds
// running compute, virtualization and sync back to back. Every standard
// design × Table III network × dp/mp × batch 256/512/1024.
func TestOverlapBounds(t *testing.T) {
	const tol = 1e-12
	points := 0
	for _, d := range StandardDesigns() {
		rate := d.EffectiveVirtBW()
		for _, net := range dnn.BenchmarkNames() {
			for _, st := range []train.Strategy{train.DataParallel, train.ModelParallel} {
				for _, batch := range []int{256, 512, 1024} {
					r := MustSimulate(d, train.MustBuild(net, batch, paperWorkers, st))
					points++
					virt := units.TransferTime(r.VirtTraffic, rate)
					lower := max(r.Breakdown.Compute, virt)
					upper := r.Breakdown.Compute + virt + r.Breakdown.Sync
					if r.IterationTime < lower*(1-tol) || r.IterationTime > upper*(1+tol) {
						t.Errorf("%s %s %v %d: iteration %v outside [%v, %v]", d.Name, net, st, batch, r.IterationTime, lower, upper)
					}
				}
			}
		}
	}
	if points != 288 {
		t.Fatalf("checked %d points, want 288", points)
	}
}
