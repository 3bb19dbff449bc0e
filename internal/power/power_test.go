package power

import (
	"math"
	"testing"

	"github.com/memcentric/mcdla/internal/memnode"
)

// hgx1MaxTDPWatts is Microsoft's HGX-1 4U chassis ceiling, which the paper
// cites as context for the added power being reasonable.
const hgx1MaxTDPWatts = 9600.0

func TestDGXEnvelope(t *testing.T) {
	// §V-C: eight 300 W V100s consume 75% of the 3200 W DGX budget.
	if got := GPUTDPWatts * GPUCount / DGXSystemTDPWatts; math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("GPU share = %g, want 0.75", got)
	}
}

func TestLowPowerChoice(t *testing.T) {
	// Paper: 8 GB RDIMM nodes add (29 × 8) = 232 W, a 7% increase.
	r := LowPowerChoice()
	if r.DIMM.Name != "8GB-RDIMM" {
		t.Fatalf("low-power DIMM = %s", r.DIMM.Name)
	}
	if r.AddedPower != 232 {
		t.Fatalf("added power = %g W, want 232", r.AddedPower)
	}
	if math.Abs(r.OverheadFraction-232.0/3200) > 1e-12 {
		t.Fatalf("overhead = %g, want 7.25%%", r.OverheadFraction)
	}
}

func TestHighCapacityChoice(t *testing.T) {
	// Paper: 128 GB LRDIMM nodes add 127 × 8 = 1016 W (31%) and expand the
	// pool to ≈10.4 TB with the best GB/W (10.1).
	r := HighCapacityChoice()
	if r.DIMM.Name != "128GB-LRDIMM" {
		t.Fatalf("capacity DIMM = %s", r.DIMM.Name)
	}
	if r.AddedPower != 1016 {
		t.Fatalf("added power = %g W, want 1016", r.AddedPower)
	}
	if r.OverheadFraction < 0.31 || r.OverheadFraction > 0.32 {
		t.Fatalf("overhead = %g, want ≈31%%", r.OverheadFraction)
	}
	if r.PoolTB < 10 || r.PoolTB > 11.5 {
		t.Fatalf("pool = %g TB, want ≈10.4", r.PoolTB)
	}
	if math.Abs(r.GBPerWatt-10.08) > 0.1 {
		t.Fatalf("GB/W = %g, want 10.1", r.GBPerWatt)
	}
}

func TestPerfPerWattHeadline(t *testing.T) {
	// Paper: 2.8×/1.31 ≈ 2.1× and 2.8×/1.07 ≈ 2.6×.
	lo := PerfPerWatt(2.8, HighCapacityChoice().OverheadFraction)
	hi := PerfPerWatt(2.8, LowPowerChoice().OverheadFraction)
	if lo < 2.0 || lo > 2.2 {
		t.Fatalf("capacity perf/W = %g, want ≈2.1", lo)
	}
	if hi < 2.5 || hi > 2.7 {
		t.Fatalf("low-power perf/W = %g, want ≈2.6", hi)
	}
}

func TestPerfPerWattPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PerfPerWatt(2.8, -0.1)
}

func TestAnalyzeAllCoversCatalog(t *testing.T) {
	rs := AnalyzeAll()
	if len(rs) != len(memnode.Catalog()) {
		t.Fatalf("report count = %d", len(rs))
	}
	for i := 1; i < len(rs); i++ {
		if rs[i].NodeTDP <= rs[i-1].NodeTDP {
			t.Errorf("node TDP not increasing: %g after %g", rs[i].NodeTDP, rs[i-1].NodeTDP)
		}
		if rs[i].PoolTB <= rs[i-1].PoolTB {
			t.Errorf("pool not increasing: %g after %g", rs[i].PoolTB, rs[i-1].PoolTB)
		}
	}
	// Every configuration stays far inside the HGX-1 4U envelope the paper
	// cites as context.
	for _, r := range rs {
		if r.SystemPower >= hgx1MaxTDPWatts {
			t.Errorf("%s system power %g exceeds HGX-1 ceiling", r.DIMM.Name, r.SystemPower)
		}
		if r.SystemPower != DGXSystemTDPWatts+r.AddedPower {
			t.Errorf("%s system power inconsistent", r.DIMM.Name)
		}
	}
}

func TestPerfPerWattMonotoneInOverhead(t *testing.T) {
	prev := math.Inf(1)
	for _, r := range AnalyzeAll() {
		ppw := PerfPerWatt(2.8, r.OverheadFraction)
		if ppw > prev {
			t.Fatalf("perf/W must fall as overhead grows")
		}
		prev = ppw
	}
}
