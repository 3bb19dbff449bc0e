package memnode

import (
	"math"
	"testing"

	"github.com/memcentric/mcdla/internal/units"
)

func TestCatalogMatchesTableIV(t *testing.T) {
	// Table IV: single-DIMM TDPs for the DDR4-2400 modules.
	want := []struct {
		name string
		tdp  float64
		cap  units.Bytes
	}{
		{"8GB-RDIMM", 2.9, 8 * units.GB},
		{"16GB-RDIMM", 6.6, 16 * units.GB},
		{"32GB-LRDIMM", 8.7, 32 * units.GB},
		{"64GB-LRDIMM", 10.2, 64 * units.GB},
		{"128GB-LRDIMM", 12.7, 128 * units.GB},
	}
	cat := Catalog()
	if len(cat) != len(want) {
		t.Fatalf("catalog size = %d, want %d", len(cat), len(want))
	}
	for i, w := range want {
		if cat[i].Name != w.name || cat[i].TDPWatts != w.tdp || cat[i].Capacity != w.cap {
			t.Errorf("catalog[%d] = %+v, want %+v", i, cat[i], w)
		}
	}
}

func TestNodeTDPMatchesTableIV(t *testing.T) {
	// Table IV memory-node TDP: DIMM TDP × 10.
	want := map[string]float64{
		"8GB-RDIMM":    29,
		"16GB-RDIMM":   66,
		"32GB-LRDIMM":  87,
		"64GB-LRDIMM":  102,
		"128GB-LRDIMM": 127,
	}
	for name, tdp := range want {
		d, err := DIMMByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c := Default()
		c.DIMM = d
		if got := c.TDPWatts(); math.Abs(got-tdp) > 1e-9 {
			t.Errorf("%s node TDP = %g W, want %g", name, got, tdp)
		}
	}
}

func TestGBPerWattMatchesTableIV(t *testing.T) {
	// Table IV GB/W column (±0.2 for the paper's rounding of GB vs GiB).
	want := map[string]float64{
		"8GB-RDIMM":    2.8,
		"16GB-RDIMM":   2.4,
		"32GB-LRDIMM":  3.7,
		"64GB-LRDIMM":  6.3,
		"128GB-LRDIMM": 10.1,
	}
	for name, gbw := range want {
		d, _ := DIMMByName(name)
		c := Default()
		c.DIMM = d
		if got := c.GBPerWatt(); math.Abs(got-gbw) > 0.8 {
			t.Errorf("%s GB/W = %.2f, want ≈%.1f", name, got, gbw)
		}
	}
}

func TestDefaultMatchesTableII(t *testing.T) {
	c := Default()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := c.MemBW().GBps(); got != 192 {
		// Ten DDR4-2400 DIMMs aggregate 192 GB/s; the controller cap of
		// 256 GB/s (Table II) does not bind at this speed grade, but does
		// for PC4-25600 boards. §III-A quotes 170–256 GB/s.
		t.Fatalf("memory bandwidth = %g GB/s, want 192 (within the 170-256 range)", got)
	}
	if got := c.MemBW().GBps(); got < 170 || got > 256 {
		t.Fatalf("memory bandwidth %g outside paper's 170-256 GB/s board range", got)
	}
	if c.Links != 6 || c.LinkBW.GBps() != 25 {
		t.Fatalf("links = %d×%v, want 6×25 GB/s", c.Links, c.LinkBW)
	}
}

func TestCapacityRange(t *testing.T) {
	// §III-A: 80 GB (ten 8 GB RDIMMs) to 1.3 TB (ten 128 GB LRDIMMs).
	small := Default()
	small.DIMM = Catalog()[0]
	if got := small.Capacity(); got != 80*units.GB {
		t.Fatalf("small node capacity = %v, want 80 GB", got)
	}
	big := Default()
	if got := float64(big.Capacity()) / 1e12; got < 1.2 || got > 1.4 {
		t.Fatalf("big node capacity = %.2f TB, want ≈1.3 TB", got)
	}
}

func TestPoolCapacityTensOfTB(t *testing.T) {
	// 8 memory-nodes × 1.3 TB ≈ 10.4 TB (§III and §V-C).
	got := float64(PoolCapacity(Default(), 8)) / 1e12
	if got < 10 || got > 11.5 {
		t.Fatalf("pool capacity = %.1f TB, want ≈10.4 TB", got)
	}
}

func TestGroupPartitioning(t *testing.T) {
	c := Default()
	if got := c.LinksPerGroup(); got != 3 {
		t.Fatalf("links per group = %d, want N/M = 3", got)
	}
	if got := c.GroupLinkBW().GBps(); got != 75 {
		t.Fatalf("group link bw = %g, want 75 GB/s", got)
	}
	// Per-group throughput is link-limited (75 < 192/2).
	if got := c.GroupBW().GBps(); got != 75 {
		t.Fatalf("group bw = %g, want link-limited 75 GB/s", got)
	}
}

func TestGroupBWMemoryLimited(t *testing.T) {
	// With M=1 the single group owns all six links (150 GB/s) and becomes
	// memory-limited by the 192... no: 150 < 192. Shrink the DIMM count.
	c := Default()
	c.Groups = 1
	c.DIMMCount = 4 // 76.8 GB/s aggregate
	if got := c.GroupBW().GBps(); math.Abs(got-76.8) > 1e-9 {
		t.Fatalf("group bw = %g, want DIMM-limited 76.8", got)
	}
}

func TestControllerCapBinds(t *testing.T) {
	c := Default()
	c.DIMM.BW = units.GBps(32) // PC4-25600-class modules: 320 GB/s raw
	if got := c.MemBW().GBps(); got != 256 {
		t.Fatalf("controller-capped bandwidth = %g, want 256", got)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	good := Default()
	cases := []func(*Config){
		func(c *Config) { c.DIMMCount = 0 },
		func(c *Config) { c.DIMM.Capacity = 0 },
		func(c *Config) { c.Links = 0 },
		func(c *Config) { c.Groups = 0 },
		func(c *Config) { c.Groups = c.Links + 1 },
		func(c *Config) { c.CtrlBW = -1 },
	}
	for i, mutate := range cases {
		c := good
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d unexpectedly valid", i)
		}
	}
}

func TestDIMMByNameUnknown(t *testing.T) {
	if _, err := DIMMByName("256GB-MEGADIMM"); err == nil {
		t.Fatal("expected error")
	}
}

func TestLRDIMMsHaveHigherGBPerWattThanRDIMMs(t *testing.T) {
	// The paper's Table IV takeaway: the 128 GB LRDIMM point has the
	// highest GB/W, the 16 GB RDIMM the lowest.
	best, worst := "", ""
	bestV, worstV := 0.0, math.Inf(1)
	for _, d := range Catalog() {
		c := Default()
		c.DIMM = d
		v := c.GBPerWatt()
		if v > bestV {
			bestV, best = v, d.Name
		}
		if v < worstV {
			worstV, worst = v, d.Name
		}
	}
	if best != "128GB-LRDIMM" {
		t.Errorf("best GB/W = %s, want 128GB-LRDIMM", best)
	}
	if worst != "16GB-RDIMM" {
		t.Errorf("worst GB/W = %s, want 16GB-RDIMM", worst)
	}
}
