package core

import (
	"strings"
	"testing"

	"github.com/memcentric/mcdla/internal/accel"
	"github.com/memcentric/mcdla/internal/dnn"
	"github.com/memcentric/mcdla/internal/trace"
	"github.com/memcentric/mcdla/internal/train"
	"github.com/memcentric/mcdla/internal/units"
)

// TestLayerForwardBackwardRatio reads the kernel's own timeline: every
// layer's backward span is accel.BackwardFactor times its forward span,
// both priced from ForwardPrices, and an input layer costs nothing either
// way (its zero-length spans are dropped).
func TestLayerForwardBackwardRatio(t *testing.T) {
	s := train.MustBuild("VGG-E", 32, 1, train.DataParallel)
	d := NewDCDLAO(accel.Default(), 1)
	tr := &trace.Log{}
	if _, err := SimulateTraced(d, s, tr); err != nil {
		t.Fatal(err)
	}
	spans := map[string]units.Time{}
	for _, sp := range tr.Spans {
		if sp.Category == trace.Compute {
			spans[sp.Name] = sp.Duration()
		}
	}
	fwd := ForwardPrices(d.Device, s)
	for _, l := range s.Graph.Layers {
		f, hasF := spans[l.Name+"/fwd"]
		b, hasB := spans[l.Name+"/bwd"]
		if l.Kind == dnn.Input {
			if fwd[l.ID] != 0 || hasF || hasB {
				t.Fatalf("input layer %s priced %v (fwd span %v, bwd span %v)", l.Name, fwd[l.ID], hasF, hasB)
			}
			continue
		}
		if !hasF || !hasB {
			t.Fatalf("layer %s: fwd span %v, bwd span %v", l.Name, hasF, hasB)
		}
		if !closeTo(f, fwd[l.ID], 1e-9) {
			t.Errorf("layer %s: fwd span %v, price %v", l.Name, f, fwd[l.ID])
		}
		if !closeTo(b, units.Time(accel.BackwardFactor)*f, 1e-9) {
			t.Errorf("layer %s: bwd %v != %g×fwd %v", l.Name, b, accel.BackwardFactor, f)
		}
	}
}

// TestIterationRemoteBeatsHost: on one device, backing the same stash plan
// with deviceremote memory over the link complex (MC-DLA(B)) is never
// slower than backing it with host memory over PCIe (DC-DLA), and strictly
// faster where the PCIe DMAs cannot hide under compute.
func TestIterationRemoteBeatsHost(t *testing.T) {
	dev := accel.Default()
	faster := 0
	for _, net := range dnn.BenchmarkNames() {
		s := train.MustBuild(net, 64, 1, train.DataParallel)
		host := MustSimulate(NewDCDLA(dev, 1), s)
		remote := MustSimulate(NewMCDLAB(dev, 1), s)
		if remote.VirtTraffic != host.VirtTraffic {
			t.Fatalf("%s: the two tiers move %v and %v", net, remote.VirtTraffic, host.VirtTraffic)
		}
		if remote.IterationTime > host.IterationTime {
			t.Errorf("%s: deviceremote iteration %v slower than host-tier %v", net, remote.IterationTime, host.IterationTime)
		}
		if host.StallVirt > 0 {
			faster++
			if remote.IterationTime >= host.IterationTime {
				t.Errorf("%s: host tier stalls %v but deviceremote %v is no faster than %v", net, host.StallVirt, remote.IterationTime, host.IterationTime)
			}
		}
	}
	if faster == 0 {
		t.Fatal("no network stalls on the host tier: nothing to beat")
	}
}

// TestAsyncCopiesOverlapWithCompute: offloads and prefetches run as DMAs
// underneath the layers, so where the channel keeps up the device never
// stalls and the iteration is its compute alone, although every stashed
// byte still crosses the channel twice.
func TestAsyncCopiesOverlapWithCompute(t *testing.T) {
	s := train.MustBuild("VGG-E", 64, 1, train.DataParallel)
	r := MustSimulate(NewMCDLAB(accel.Default(), 1), s)
	if r.VirtTraffic <= 0 {
		t.Fatal("no virtualization traffic to overlap")
	}
	if r.StallVirt != 0 || r.IterationTime != r.Breakdown.Compute {
		t.Fatalf("iteration %v, compute %v, stalls %v: DMAs not hidden under compute",
			r.IterationTime, r.Breakdown.Compute, r.StallVirt)
	}
	// The same traffic at PCIe rate does not hide: the device waits.
	h := MustSimulate(NewDCDLA(accel.Default(), 1), s)
	if h.StallVirt <= 0 || h.IterationTime <= h.Breakdown.Compute {
		t.Fatalf("host tier: iteration %v, compute %v, stalls %v: expected stalls", h.IterationTime, h.Breakdown.Compute, h.StallVirt)
	}
}

// TestStallSpansMatchStallTally: the kernel's stall tally is the sum of the
// stall spans it draws, and each stall precedes a backward step.
func TestStallSpansMatchStallTally(t *testing.T) {
	s := train.MustBuild("AlexNet", 64, 1, train.DataParallel)
	tr := &trace.Log{}
	r, err := SimulateTraced(NewDCDLA(accel.Default(), 1), s, tr)
	if err != nil {
		t.Fatal(err)
	}
	var sum units.Time
	for _, sp := range tr.Spans {
		if sp.Category == trace.Stall {
			if !strings.HasSuffix(sp.Name, "/stall") {
				t.Fatalf("stall span %q", sp.Name)
			}
			sum += sp.Duration()
		}
	}
	if r.StallVirt <= 0 || !closeTo(sum, r.StallVirt, 1e-9) {
		t.Fatalf("stall spans sum to %v, tally %v", sum, r.StallVirt)
	}
}
