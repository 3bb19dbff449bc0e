package accel

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/memcentric/mcdla/internal/dnn"
	"github.com/memcentric/mcdla/internal/units"
)

func TestDefaultMatchesTableII(t *testing.T) {
	c := Default()
	if c.PEs != 1024 || c.MACsPerPE != 125 || c.FreqHz != 1e9 {
		t.Fatalf("PE organization = %d×%d@%g, want 1024×125@1e9", c.PEs, c.MACsPerPE, c.FreqHz)
	}
	if c.SRAMPerPE != 32*units.KB {
		t.Errorf("SRAM per PE = %v, want 32 KB", c.SRAMPerPE)
	}
	if c.MemBW.GBps() != 900 {
		t.Errorf("HBM bandwidth = %v, want 900 GB/s", c.MemBW)
	}
	if c.MemLatencyCycles != 100 {
		t.Errorf("memory latency = %d cycles, want 100", c.MemLatencyCycles)
	}
	if c.Links != 6 || c.LinkBW.GBps() != 25 {
		t.Errorf("links = %d × %v, want 6 × 25 GB/s", c.Links, c.LinkBW)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPeakThroughput(t *testing.T) {
	c := Default()
	if got := c.PeakMACsPerSec(); got != 1024*125*1e9 {
		t.Fatalf("peak = %g MAC/s", got)
	}
	if got := c.AggregateLinkBW().GBps(); got != 150 {
		t.Fatalf("aggregate link bw = %g, want 150 GB/s", got)
	}
}

func TestGEMMComputeBound(t *testing.T) {
	c := Default()
	// Huge square GEMM with negligible memory traffic: time ≈ MACs/peak.
	g := dnn.GEMM{M: 4096, N: 4096, K: 4096}
	got := c.GEMMTime(g, 1).Seconds()
	ideal := float64(g.MACs()) / c.PeakMACsPerSec()
	if got < ideal {
		t.Fatalf("GEMM faster than peak: %g < %g", got, ideal)
	}
	// Dimensions divide the array evenly (4096·4096/1024 tiles, K/125 is
	// not integral, so allow the ceil slack).
	if got > ideal*1.05 {
		t.Fatalf("GEMM utilization too low: %g vs ideal %g", got, ideal)
	}
}

func TestGEMMMemoryBound(t *testing.T) {
	c := Default()
	// FC-style skinny GEMM: batch 64 over a 4096×4096 weight matrix is
	// dominated by the 67 MB weight read at 900 GB/s.
	g := dnn.GEMM{M: 64, N: 4096, K: 4096}
	bytes := int64((64*4096 + 4096*4096 + 64*4096) * dnn.ElemBytes)
	got := c.GEMMTime(g, bytes).Seconds()
	memTime := float64(bytes)/900e9 + 100e-9
	if math.Abs(got-memTime) > memTime*0.01 {
		t.Fatalf("memory-bound GEMM time = %g, want ≈ %g", got, memTime)
	}
	ideal := float64(g.MACs()) / c.PeakMACsPerSec()
	if u := ideal / got; u > 0.3 {
		t.Fatalf("memory-bound GEMM should reach at most 0.3 of peak, got %g", u)
	}
}

func TestGEMMZeroWork(t *testing.T) {
	if got := Default().GEMMTime(dnn.GEMM{}, 0); got != 0 {
		t.Fatalf("empty GEMM time = %v", got)
	}
}

func TestPartialTileUtilizationPenalty(t *testing.T) {
	c := Default()
	// 1025 outputs need two tiles on a 1024-PE array even though the work
	// barely exceeds one tile.
	small := c.GEMMTime(dnn.GEMM{M: 1, N: 1024, K: 125000}, 1)
	spill := c.GEMMTime(dnn.GEMM{M: 1, N: 1025, K: 125000}, 1)
	if spill.Seconds() < small.Seconds()*1.9 {
		t.Fatalf("tile spill not penalized: %v vs %v", spill, small)
	}
}

func TestElementwiseMemoryBound(t *testing.T) {
	c := Default()
	elems := int64(64 * 1024 * 1024)
	got := c.ElementwiseTime(elems, 1).Seconds()
	mem := float64(2*elems*dnn.ElemBytes)/900e9 + 100e-9
	if math.Abs(got-mem) > mem*0.01 {
		t.Fatalf("elementwise time = %g, want ≈ %g (memory bound)", got, mem)
	}
}

func TestGenerationsOrderedAndFaster(t *testing.T) {
	gens := Generations()
	if len(gens) != 5 {
		t.Fatalf("generation count = %d, want 5", len(gens))
	}
	wantNames := []string{"Kepler", "Maxwell", "Pascal", "Volta", "TPUv2"}
	for i, g := range gens {
		if g.Name != wantNames[i] {
			t.Errorf("generation %d = %s, want %s", i, g.Name, wantNames[i])
		}
		if err := g.Config.Validate(); err != nil {
			t.Errorf("%s: %v", g.Name, err)
		}
	}
	for i := 1; i < len(gens); i++ {
		if gens[i].Config.PeakMACsPerSec() <= gens[i-1].Config.PeakMACsPerSec() {
			t.Errorf("%s not faster than %s", gens[i].Name, gens[i-1].Name)
		}
	}
}

func TestVoltaOverKeplerSpeedupInPaperRange(t *testing.T) {
	// Figure 2: execution time reduced by 20×–34× over five years. The
	// compute-peak ratio Volta/Kepler must land in that band.
	gens := Generations()
	ratio := gens[3].Config.PeakMACsPerSec() / gens[0].Config.PeakMACsPerSec()
	if ratio < 20 || ratio > 34 {
		t.Fatalf("Volta/Kepler peak ratio = %.1f, want within [20,34]", ratio)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{Name: "no-pes", MACsPerPE: 1, FreqHz: 1, MemBW: 1, Links: 1, LinkBW: 1},
		{Name: "no-macs", PEs: 1, FreqHz: 1, MemBW: 1, Links: 1, LinkBW: 1},
		{Name: "no-freq", PEs: 1, MACsPerPE: 1, MemBW: 1, Links: 1, LinkBW: 1},
		{Name: "no-mem", PEs: 1, MACsPerPE: 1, FreqHz: 1, Links: 1, LinkBW: 1},
		{Name: "no-links", PEs: 1, MACsPerPE: 1, FreqHz: 1, MemBW: 1},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %s unexpectedly valid", c.Name)
		}
	}
}

// Property: GEMM time is monotone in each dimension.
func TestPropertyGEMMMonotone(t *testing.T) {
	c := Default()
	f := func(m, n, k uint16) bool {
		g := dnn.GEMM{M: int64(m%512) + 1, N: int64(n%512) + 1, K: int64(k%512) + 1}
		base := c.GEMMTime(g, 0)
		grown := g
		grown.M *= 2
		if c.GEMMTime(grown, 0) < base {
			return false
		}
		grown = g
		grown.K *= 2
		return c.GEMMTime(grown, 0) >= base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: a nonempty GEMM reaches a fraction of peak MAC throughput
// within (0, 1]: its time is positive and never beats the ideal
// MACs()/PeakMACsPerSec().
func TestPropertyUtilizationBounded(t *testing.T) {
	c := Default()
	f := func(m, n, k uint16, bytes uint32) bool {
		g := dnn.GEMM{M: int64(m) + 1, N: int64(n) + 1, K: int64(k) + 1}
		u := float64(g.MACs()) / c.PeakMACsPerSec() / c.GEMMTime(g, int64(bytes)).Seconds()
		return u > 0 && u <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
