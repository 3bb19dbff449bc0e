package scaleout

import (
	"math"
	"testing"

	"github.com/memcentric/mcdla/internal/core"
	"github.com/memcentric/mcdla/internal/dnn"
	"github.com/memcentric/mcdla/internal/train"
	"github.com/memcentric/mcdla/internal/units"
)

// relDiff reports |a − b| relative to the larger magnitude.
func relDiff(a, b units.Time) float64 {
	if a == b {
		return 0
	}
	return math.Abs(float64(a-b)) / math.Max(math.Abs(float64(a)), math.Abs(float64(b)))
}

// nodeTwin builds the single-node design the one-chassis memory-centric
// plane reduces to: MC-DLA(B) over the plane's switch link complex, its
// memory-node bandwidth and its chassis rings.
func nodeTwin(p Plane) core.Design {
	d := core.NewMCDLAB(p.Device, p.DevicesPerNode)
	d.LinkComplexBW = p.DeviceLinkBW()
	d.VirtBW = p.VirtBW()
	d.Sync = p.intraConfig()
	return d
}

// TestPlaneMatchesCoreOnOneChassis is the differential test between the two
// event engines. A one-chassis memory-centric plane trained data-parallel is
// the node engine's MC-DLA(B) over the plane's links: run under core's
// whole-group FIFO prefetch, it must give the same compute and sync bits on
// every Table III network, and the same stall and iteration time to 1e-12.
// The residue below that is the plane's event bookkeeping, not its model:
// it pumps its dW ops at every backward boundary, advancing the shared
// switch channel to the device clock and so splitting flow progress steps
// that core takes whole, and it lands them from the backward end where core
// lands them from the running end. Both move only the last bits. At the
// plane's own window of 8 compute and sync stay exact and the stall, with
// the iteration, differs: that residue is the prefetch policy.
func TestPlaneMatchesCoreOnOneChassis(t *testing.T) {
	var worst float64
	var worstAt string
	inexact := 0
	for _, devices := range []int{1, 8} {
		p := Default(1)
		p.DevicesPerNode = devices
		batch := 64 * devices
		for _, net := range dnn.BenchmarkNames() {
			s, err := train.BuildSeq(net, batch, devices, train.DataParallel, 0, train.FP16)
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.Simulate(nodeTwin(p), s)
			if err != nil {
				t.Fatal(err)
			}
			got, err := p.simulate(net, batch, true, DataParallel, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got.Compute != want.Breakdown.Compute || got.Sync != want.Breakdown.Sync {
				t.Errorf("%s ×%d: plane compute/sync %.17g/%.17g, core %.17g/%.17g", net, devices,
					got.Compute, got.Sync, want.Breakdown.Compute, want.Breakdown.Sync)
			}
			if d := relDiff(got.StallVirt, want.StallVirt); d > 1e-12 {
				t.Errorf("%s ×%d: plane stall %v, core %v (%.2g relative)", net, devices, got.StallVirt, want.StallVirt, d)
			}
			if d := relDiff(got.Iteration, want.IterationTime); d > 1e-12 {
				t.Errorf("%s ×%d: plane iteration %v, core %v (%.2g relative)", net, devices, got.Iteration, want.IterationTime, d)
			}
			if got.StallVirt != want.StallVirt || got.Iteration != want.IterationTime {
				inexact++
			}

			own, err := p.Simulate(net, batch, true, DataParallel)
			if err != nil {
				t.Fatal(err)
			}
			if own.Compute != want.Breakdown.Compute || own.Sync != want.Breakdown.Sync {
				t.Errorf("%s ×%d: the prefetch window moved compute or sync", net, devices)
			}
			if share := math.Abs(float64(own.StallVirt-want.StallVirt)) / float64(want.IterationTime); share > worst {
				worst, worstAt = share, net
			}
		}
	}
	t.Logf("group FIFO: %d of 16 cases off in the last bits of stall or iteration", inexact)
	t.Logf("window 8: stall differs from group FIFO by up to %.1f%% of the iteration (%s)", 100*worst, worstAt)
	if worst > 1.0/3 {
		t.Errorf("window-8 stall residue %.1f%% of the iteration (%s), want ≤ 1/3", 100*worst, worstAt)
	}
}

// TestPlaneOverlapBounds checks the kernel's overlap argument on the plane:
// the iteration never beats perfect overlap of compute with the
// virtualization traffic at its channel rate, and never exceeds running
// compute, virtualization and sync back to back.
func TestPlaneOverlapBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("120 plane simulations")
	}
	const tol = 1e-12
	points := 0
	for _, n := range []int{1, 2, 16} {
		for _, devices := range []int{1, 8} {
			p := Default(n)
			p.DevicesPerNode = devices
			batch := 64 * p.TotalDevices()
			for _, w := range []string{"VGG-E", "BERT-Large", "GPT-2", "RNN-GRU", "ResNet"} {
				for _, mc := range []bool{false, true} {
					for _, st := range []Strategy{DataParallel, Hybrid} {
						r, err := p.Simulate(w, batch, mc, st)
						if err != nil {
							t.Fatal(err)
						}
						points++
						lower := max(r.Compute, r.Virt)
						upper := r.Compute + r.Virt + r.Sync
						if r.Iteration < lower*(1-tol) || r.Iteration > upper*(1+tol) {
							t.Errorf("%d×%d %s mc=%v %v: iteration %v outside [%v, %v]", n, devices, w, mc, st, r.Iteration, lower, upper)
						}
					}
				}
			}
		}
	}
	if points != 120 {
		t.Fatalf("checked %d points, want 120", points)
	}
}
