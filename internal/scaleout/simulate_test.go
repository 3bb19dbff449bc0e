package scaleout

import (
	"strings"
	"testing"

	"github.com/memcentric/mcdla/internal/dnn"
	"github.com/memcentric/mcdla/internal/trace"
	"github.com/memcentric/mcdla/internal/units"
)

const defaultBatch = 8 * 16 * 64

// divergence reports (sim − est) / est for the MC- or DC-plane.
func divergence(t *testing.T, p Plane, workload string, batch int, memCentric bool) float64 {
	t.Helper()
	est, err := p.Estimate(workload, batch, memCentric)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := p.Simulate(workload, batch, memCentric, DataParallel)
	if err != nil {
		t.Fatal(err)
	}
	return (sim.Iteration.Seconds() - est.Iteration.Seconds()) / est.Iteration.Seconds()
}

// The acceptance bar: on the default Figure 15 configuration the event
// engine reproduces the first-order estimate within ±15% for both planes at
// every default study size.
func TestSimulateMatchesEstimateOnDefaultPlane(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16} {
		p := Default(n)
		for _, mc := range []bool{false, true} {
			if d := divergence(t, p, "VGG-E", defaultBatch, mc); d < -0.15 || d > 0.15 {
				t.Errorf("%d nodes, memCentric=%v: divergence %+.1f%% outside ±15%%", n, mc, 100*d)
			}
		}
	}
}

// Where uplink contention matters the engines must part ways: all
// DevicesPerNode shard rings share one uplink, which the additive estimate
// prices as a single ring over the full uplink bandwidth. The regime is
// gradient-dominated strong scaling — a small per-device batch leaves no
// compute to hide the exchange under, and a thin uplink makes the 8×
// under-count visible.
func TestUplinkContentionDiverges(t *testing.T) {
	const smallBatch = 8 * 8 * 8 // 8 per device on the 8-node plane
	base := divergence(t, Default(8), "VGG-E", smallBatch, true)
	if base < -0.15 || base > 0.15 {
		t.Fatalf("healthy uplink at small batch must stay near the estimate, got %+.1f%%", 100*base)
	}
	starved := Default(8)
	starved.UplinkBW = units.GBps(25)
	d := divergence(t, starved, "VGG-E", smallBatch, true)
	if d < 0.20 {
		t.Fatalf("starved uplink divergence %+.1f%% not measurable", 100*d)
	}
	if d < 4*base {
		t.Fatalf("uplink starvation must widen the gap: %+.1f%% vs baseline %+.1f%%", 100*d, 100*base)
	}
}

func TestSimulateUplinkAccounting(t *testing.T) {
	p := Default(4)
	one, err := Default(1).Simulate("VGG-E", defaultBatch, true, DataParallel)
	if err != nil {
		t.Fatal(err)
	}
	if one.UplinkBytes != 0 || one.UplinkBusy != 0 {
		t.Fatal("single-chassis plane must not touch the uplink")
	}
	multi, err := p.Simulate("VGG-E", defaultBatch, true, DataParallel)
	if err != nil {
		t.Fatal(err)
	}
	if multi.UplinkBytes <= 0 || multi.UplinkBusy <= 0 {
		t.Fatal("multi-chassis plane must carry uplink traffic")
	}
	// Every local rank's 1/D shard ring crosses the uplink, so the
	// per-chassis bytes sum back to a full ring over the whole dW payload:
	// D ranks × 2(S−1)/S × (W/D) = 2(S−1)/S × W. Dropping the sibling
	// flows would shrink the measured bytes by the device fan-in.
	weights := float64(dnn.MustBuild("VGG-E", 64).TotalWeightBytes())
	s := float64(p.SystemNodes)
	want := 2 * (s - 1) / s * weights
	got := float64(multi.UplinkBytes)
	if got < 0.95*want || got > 1.05*want {
		t.Fatalf("uplink bytes %v, want ≈ %v (all %d rank rings)", multi.UplinkBytes, units.Bytes(want), p.DevicesPerNode)
	}
}

func TestSimulateStrategies(t *testing.T) {
	p := Default(4)
	dp, err := p.Simulate("VGG-E", defaultBatch, true, DataParallel)
	if err != nil {
		t.Fatal(err)
	}
	hy, err := p.Simulate("VGG-E", defaultBatch, true, Hybrid)
	if err != nil {
		t.Fatal(err)
	}
	if dp.Devices != 32 || hy.Devices != 32 {
		t.Fatalf("device counts %d/%d", dp.Devices, hy.Devices)
	}
	if dp.Iteration <= 0 || hy.Iteration <= 0 {
		t.Fatal("iterations must be positive")
	}
	// Hybrid all-reduces the already-sharded dW directly on the uplink; its
	// chassis-local feature-map collectives dominate instead (the §V
	// DP-vs-MP relationship carried to the plane).
	if hy.Sync <= dp.Sync {
		t.Fatal("hybrid's blocking feature-map collectives must outweigh DP's dW laps")
	}
	if DataParallel.String() != "data-parallel" || Hybrid.String() != "hybrid" {
		t.Fatal("strategy strings")
	}
	if s := (Strategy(42)).String(); !strings.Contains(s, "42") {
		t.Fatalf("unknown strategy string %q", s)
	}
}

func TestSimulateTracedRecordsInterSync(t *testing.T) {
	tr := &trace.Log{}
	if _, err := Default(4).SimulateTraced("VGG-E", defaultBatch, true, DataParallel, tr); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	sum := tr.Summary()
	if sum[trace.Compute] <= 0 || sum[trace.Offload] <= 0 || sum[trace.Prefetch] <= 0 {
		t.Fatalf("plane trace missing core categories: %v", sum)
	}
	if sum[trace.InterSync] <= 0 {
		t.Fatalf("plane trace missing inter-node sync spans: %v", sum)
	}
}

// TestTracedMatchesUntraced is the plane engine's tracing guard: attaching a
// log must not change a single field of the result, on a four-chassis
// memory-centric plane under both strategies (staged uplink laps, chassis
// collectives and the prefetch queue all emit spans).
func TestTracedMatchesUntraced(t *testing.T) {
	p := Default(4)
	for _, strategy := range []Strategy{DataParallel, Hybrid} {
		plain, err := p.Simulate("VGG-E", defaultBatch, true, strategy)
		if err != nil {
			t.Fatal(err)
		}
		tr := &trace.Log{}
		traced, err := p.SimulateTraced("VGG-E", defaultBatch, true, strategy, tr)
		if err != nil {
			t.Fatal(err)
		}
		if plain != traced {
			t.Errorf("%v: tracing changed the result:\n  plain  %+v\n  traced %+v", strategy, plain, traced)
		}
		if len(tr.Spans) == 0 {
			t.Errorf("%v: traced run recorded no spans", strategy)
		}
	}
}

func TestSimulateErrors(t *testing.T) {
	p := Default(2)
	if _, err := p.Simulate("VGG-E", 100, true, DataParallel); err == nil {
		t.Error("expected indivisible-batch error")
	}
	if _, err := p.Simulate("NoSuchNet", 2*8*4, true, DataParallel); err == nil {
		t.Error("expected unknown-workload error")
	}
	if _, err := p.Simulate("VGG-E", defaultBatch, true, Strategy(9)); err == nil {
		t.Error("expected unknown-strategy error")
	}
	bad := Default(2)
	bad.MemNodesPerNode = 0
	if _, err := bad.Simulate("VGG-E", defaultBatch, true, DataParallel); err == nil {
		t.Error("expected memory-centric-without-memory-nodes error")
	}
	if _, err := bad.Simulate("VGG-E", defaultBatch, false, DataParallel); err != nil {
		t.Errorf("DC-plane must accept zero memory-nodes: %v", err)
	}
	bad = Default(0)
	if _, err := bad.Simulate("VGG-E", defaultBatch, true, DataParallel); err == nil {
		t.Error("expected validation error")
	}
}
