// Package memnode models the paper's memory-node (§III-A, Figure 6): a
// PCIe-board-sized carrier with N high-bandwidth links fronted by a protocol
// engine, a DMA unit, and a memory controller over an array of commodity
// DDR4 DIMMs. The N links are logically partitioned into M groups, each
// group dedicated to one device-node; the board is sized like a V100
// mezzanine (14 cm × 8 cm) and houses ten DIMMs.
package memnode

import (
	"fmt"

	"github.com/memcentric/mcdla/internal/units"
)

// DIMM describes one commodity DDR4 module option. The catalog mirrors the
// paper's range: 8–16 GB RDIMMs through 32–128 GB LRDIMMs (DDR4-2400 for the
// Table IV power analysis; PC4-17000/PC4-25600 bound the bandwidth range).
type DIMM struct {
	Name     string
	Kind     string // "RDIMM" or "LRDIMM"
	Capacity units.Bytes
	// BW is the module bandwidth at the configured speed grade.
	BW units.Bandwidth
	// TDPWatts is the module's thermal design power (Table IV).
	TDPWatts float64
}

// Catalog returns the DIMM options of §III-A / Table IV, smallest first.
// Bandwidths are the DDR4-2400 (PC4-19200) per-module 19.2 GB/s, except the
// speed-grade endpoints used for the §III-A 170–256 GB/s board range.
func Catalog() []DIMM {
	return []DIMM{
		{Name: "8GB-RDIMM", Kind: "RDIMM", Capacity: 8 * units.GB, BW: units.GBps(19.2), TDPWatts: 2.9},
		{Name: "16GB-RDIMM", Kind: "RDIMM", Capacity: 16 * units.GB, BW: units.GBps(19.2), TDPWatts: 6.6},
		{Name: "32GB-LRDIMM", Kind: "LRDIMM", Capacity: 32 * units.GB, BW: units.GBps(19.2), TDPWatts: 8.7},
		{Name: "64GB-LRDIMM", Kind: "LRDIMM", Capacity: 64 * units.GB, BW: units.GBps(19.2), TDPWatts: 10.2},
		{Name: "128GB-LRDIMM", Kind: "LRDIMM", Capacity: 128 * units.GB, BW: units.GBps(19.2), TDPWatts: 12.7},
	}
}

// DIMMByName looks up a catalog entry.
func DIMMByName(name string) (DIMM, error) {
	for _, d := range Catalog() {
		if d.Name == name {
			return d, nil
		}
	}
	return DIMM{}, fmt.Errorf("memnode: unknown DIMM %q", name)
}

// Config describes one memory-node.
type Config struct {
	// DIMMs populated on the board (ten fit the V100-sized mezzanine).
	DIMMCount int
	DIMM      DIMM
	// Links is N, the node's high-bandwidth link count.
	Links int
	// LinkBW is B, per-link per-direction bandwidth.
	LinkBW units.Bandwidth
	// Groups is M: the links are partitioned into M groups (M ≤ N), each
	// exclusively serving one device-node.
	Groups int
	// CtrlBW caps the memory-controller throughput across the DIMM array;
	// zero means the DIMM aggregate is the cap. The paper's Table II
	// memory-node provides 256 GB/s.
	CtrlBW units.Bandwidth
}

// Default returns the Table II memory-node: ten DIMMs behind a 256 GB/s
// controller, N=6 links of 25 GB/s, partitioned into two groups (each
// device-node owns half a memory-node on its left and right — Figure 8).
func Default() Config {
	cat := Catalog()
	return Config{
		DIMMCount: 10,
		DIMM:      cat[4], // 128 GB LRDIMM: the 1.3 TB capacity point
		Links:     6,
		LinkBW:    units.GBps(25),
		Groups:    2,
		CtrlBW:    units.GBps(256),
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.DIMMCount <= 0:
		return fmt.Errorf("memnode: DIMM count must be positive")
	case c.DIMM.Capacity <= 0 || c.DIMM.BW <= 0:
		return fmt.Errorf("memnode: DIMM %q must have positive capacity and bandwidth", c.DIMM.Name)
	case c.Links <= 0 || c.LinkBW <= 0:
		return fmt.Errorf("memnode: links and link bandwidth must be positive")
	case c.Groups <= 0 || c.Groups > c.Links:
		return fmt.Errorf("memnode: groups M=%d must satisfy 1 ≤ M ≤ N=%d", c.Groups, c.Links)
	case c.CtrlBW < 0:
		return fmt.Errorf("memnode: controller bandwidth must be nonnegative")
	}
	return nil
}

// Capacity reports the node's total DIMM capacity.
func (c Config) Capacity() units.Bytes {
	return units.Bytes(int64(c.DIMMCount) * int64(c.DIMM.Capacity))
}

// MemBW reports the node's deliverable memory bandwidth: the DIMM aggregate,
// clamped by the controller.
func (c Config) MemBW() units.Bandwidth {
	agg := units.Bandwidth(float64(c.DIMM.BW) * float64(c.DIMMCount))
	if c.CtrlBW > 0 && c.CtrlBW < agg {
		return c.CtrlBW
	}
	return agg
}

// LinksPerGroup reports N/M: the links a device-node's group owns.
func (c Config) LinksPerGroup() int { return c.Links / c.Groups }

// GroupLinkBW reports (N/M)×B: the link throughput one device-node can DMA
// through its group.
func (c Config) GroupLinkBW() units.Bandwidth {
	return units.Bandwidth(float64(c.LinkBW) * float64(c.LinksPerGroup()))
}

// GroupBW reports the effective per-group throughput: link-limited and
// memory-limited, whichever binds (the DIMM array is shared by the groups).
func (c Config) GroupBW() units.Bandwidth {
	memShare := units.Bandwidth(float64(c.MemBW()) / float64(c.Groups))
	link := c.GroupLinkBW()
	if link < memShare {
		return link
	}
	return memShare
}

// TDPWatts reports the board's memory power (Table IV: DIMM TDP × count).
func (c Config) TDPWatts() float64 { return c.DIMM.TDPWatts * float64(c.DIMMCount) }

// GBPerWatt reports the capacity efficiency figure of Table IV, using the
// modules' nominal gigabyte capacities as the paper does (e.g. ten 128 GB
// LRDIMMs at 127 W → 10.1 GB/W).
func (c Config) GBPerWatt() float64 {
	return float64(c.Capacity()) / float64(units.GB) / c.TDPWatts()
}

// PoolCapacity reports the system-wide capacity expansion of count
// memory-nodes (the paper's "tens of TBs": 8 × 1.3 TB ≈ 10.4 TB).
func PoolCapacity(c Config, count int) units.Bytes {
	return units.Bytes(int64(c.Capacity()) * int64(count))
}
