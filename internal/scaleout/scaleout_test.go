package scaleout

import (
	"math"
	"testing"

	"github.com/memcentric/mcdla/internal/units"
)

func TestDefaultPlaneValid(t *testing.T) {
	for _, n := range []int{1, 2, 8, 32} {
		p := Default(n)
		if err := p.Validate(); err != nil {
			t.Fatalf("%d nodes: %v", n, err)
		}
		if p.TotalDevices() != 8*n {
			t.Fatalf("%d nodes: devices = %d", n, p.TotalDevices())
		}
	}
}

func TestPoolGrowsWithPlane(t *testing.T) {
	// One system node exposes ≈10 TB (§V-C); a 32-node plane reaches the
	// §VI "thousands of GPUs / hundreds of TB" regime.
	one := float64(Default(1).PoolCapacity()) / 1e12
	if one < 10 || one > 11.5 {
		t.Fatalf("single-node pool = %.1f TB", one)
	}
	big := float64(Default(32).PoolCapacity()) / 1e12
	if big < 300 {
		t.Fatalf("32-node pool = %.1f TB, want hundreds of TB", big)
	}
}

func TestVirtBWSwitchStriped(t *testing.T) {
	p := Default(1)
	// 3 links × 25 GB/s = 75 GB/s per device; the 8 memory-nodes deliver
	// 8×192/8 = 192 GB/s per device, so links bind.
	if got := p.VirtBW().GBps(); got != 75 {
		t.Fatalf("virt bw = %g, want link-limited 75", got)
	}
	p.MemNodesPerNode = 1
	// One board shared by 8 devices: 192/8 = 24 GB/s binds.
	if got := p.VirtBW().GBps(); got != 24 {
		t.Fatalf("virt bw = %g, want memory-limited 24", got)
	}
	p.MemNodesPerNode = 0
	if p.VirtBW() != 0 {
		t.Fatal("no memory-nodes must mean no deviceremote bandwidth")
	}
}

func TestHierarchicalAllReduce(t *testing.T) {
	single := Default(1)
	multi := Default(4)
	s := single.AllReduce(128 * units.MB)
	m := multi.AllReduce(128 * units.MB)
	if m <= s {
		t.Fatalf("inter-node phase must add latency: %v vs %v", m, s)
	}
	// The inter-node shard is 1/8 of the buffer over a 300 GB/s uplink —
	// the hierarchy must cost far less than a flat ring over the uplink.
	flat := Default(4)
	flatCfg := flat.interConfig()
	flatCfg.Nodes = flat.TotalDevices()
	if m.Seconds() > 2*s.Seconds() {
		t.Fatalf("hierarchical all-reduce disproportionate: %v vs local %v", m, s)
	}
}

func TestEstimateMCBeatsDC(t *testing.T) {
	p := Default(2)
	dc, err := p.Estimate("VGG-E", 1024, false)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := p.Estimate("VGG-E", 1024, true)
	if err != nil {
		t.Fatal(err)
	}
	if mc.Iteration >= dc.Iteration {
		t.Fatalf("MC-plane (%v) must beat DC-plane (%v)", mc.Iteration, dc.Iteration)
	}
	if dc.Devices != 16 || mc.Devices != 16 {
		t.Fatalf("device counts = %d/%d", dc.Devices, mc.Devices)
	}
	if mc.Virt >= dc.Virt {
		t.Fatal("MC-plane must shrink virtualization latency")
	}
}

func TestScalingShapes(t *testing.T) {
	pts, err := Scaling("VGG-E", 4096, []int{1, 2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("point count = %d", len(pts))
	}
	if pts[0].SpeedupDC != 1 || pts[0].SpeedupMC != 1 {
		t.Fatal("first point must be the baseline")
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].SpeedupMC <= pts[i-1].SpeedupMC {
			t.Fatalf("MC-plane scaling not monotone: %+v", pts)
		}
		if pts[i].PoolTB <= pts[i-1].PoolTB {
			t.Fatal("pool must grow with the plane")
		}
	}
	// The §VI promise: the MC-plane keeps near-ideal scaling, and at every
	// size it beats the PCIe-bound DC-plane by a wide constant factor (the
	// §V gap carried into the scale-out regime).
	last := pts[len(pts)-1]
	ideal := float64(last.Devices) / float64(pts[0].Devices)
	if last.SpeedupMC < 0.6*ideal {
		t.Fatalf("MC-plane scaling %.2f too far from ideal %g", last.SpeedupMC, ideal)
	}
	for _, n := range []int{1, 8} {
		p := Default(n)
		dc, err := p.Estimate("VGG-E", 4096, false)
		if err != nil {
			t.Fatal(err)
		}
		mc, err := p.Estimate("VGG-E", 4096, true)
		if err != nil {
			t.Fatal(err)
		}
		if gap := dc.Iteration.Seconds() / mc.Iteration.Seconds(); gap < 2 {
			t.Fatalf("%d nodes: MC-plane gap %.2fx, want ≥ 2x", n, gap)
		}
	}
}

func TestEstimateErrors(t *testing.T) {
	p := Default(3)
	if _, err := p.Estimate("VGG-E", 100, true); err == nil {
		t.Error("expected indivisible-batch error")
	}
	if _, err := p.Estimate("NoSuchNet", 3*8*4, true); err == nil {
		t.Error("expected unknown-workload error")
	}
	bad := Default(0)
	if err := bad.Validate(); err == nil {
		t.Error("expected validation error for zero nodes")
	}
	bad = Default(2)
	bad.UplinkBW = 0
	if err := bad.Validate(); err == nil {
		t.Error("expected validation error for missing uplinks")
	}
	bad = Default(1)
	bad.HostBW = 0
	if err := bad.Validate(); err == nil {
		t.Error("expected validation error for missing host bandwidth")
	}
	bad = Default(1)
	bad.LinksPerDevice = 0
	if err := bad.Validate(); err == nil {
		t.Error("expected validation error for zero links")
	}
	bad = Default(1)
	bad.MemNodesPerNode = -1
	if err := bad.Validate(); err == nil {
		t.Error("expected validation error for negative memory nodes")
	}
	bad = Default(1)
	bad.DevicesPerNode = 0
	if err := bad.Validate(); err == nil {
		t.Error("expected validation error for zero devices")
	}
}

// Regression: memory-centric estimates over a plane without memory-nodes
// used to return +Inf iteration times (units.TransferTime over the zero
// VirtBW) and NaN speedups downstream; they must be rejected instead.
func TestEstimateRejectsMemCentricWithoutMemNodes(t *testing.T) {
	p := Default(2)
	p.MemNodesPerNode = 0
	if _, err := p.Estimate("VGG-E", 1024, true); err == nil {
		t.Fatal("expected error for memory-centric plane without memory-nodes")
	}
	// The DC-plane ignores memory-nodes and must keep working.
	dc, err := p.Estimate("VGG-E", 1024, false)
	if err != nil {
		t.Fatal(err)
	}
	if !(dc.Iteration > 0) || math.IsInf(dc.Iteration.Seconds(), 0) {
		t.Fatalf("DC iteration = %v", dc.Iteration)
	}
	// A memory-node board that can deliver nothing is equally unusable.
	p = Default(1)
	p.MemNode.DIMM.BW = 0
	if _, err := p.Estimate("VGG-E", 1024, true); err == nil {
		t.Fatal("expected error for zero-bandwidth memory-nodes")
	}
}

// Regression: the plane study propagates configuration errors instead of
// emitting Inf/NaN speedup rows.
func TestScalingPropagatesErrors(t *testing.T) {
	broken := Default(2)
	broken.MemNodesPerNode = 0
	for _, analytic := range []bool{true, false} {
		pt, err := broken.EvalPoint("VGG-E", 1024, analytic)
		if err == nil {
			t.Fatalf("analytic=%v: expected error, got row %+v", analytic, pt)
		}
	}
	// Sanity: no NaN/Inf ever leaks from a healthy study.
	var pts []ScalingPoint
	for _, n := range []int{1, 4} {
		pt, err := Default(n).EvalPoint("VGG-E", 4096, true)
		if err != nil {
			t.Fatal(err)
		}
		pts = append(pts, pt)
	}
	FillSpeedups(pts)
	for _, pt := range pts {
		for _, v := range []float64{pt.SpeedupDC, pt.SpeedupMC, pt.IterDC.Seconds(), pt.IterMC.Seconds()} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("degenerate value in %+v", pt)
			}
		}
	}
}
