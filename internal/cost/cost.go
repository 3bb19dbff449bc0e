// Package cost is the component-level TCO model behind the design-space
// optimizer: it prices any simulated system configuration from a small
// catalog of unit costs — HBM versus commodity DDR4 DIMM $/GB, accelerator
// and memory-node board costs, high-bandwidth signaling $ per GB/s, and the
// host server with its DRAM — and composes with the power package's wall
// numbers into the perf-per-dollar and perf-per-watt figures the paper's
// economic argument is made in (TensorDIMM and the TPU paper frame design
// choices the same way).
//
// The prices are deliberately coarse 2018-era street/TCO figures: the model
// is for *comparing* design points whose component mix differs (an HBM-only
// DC-DLA node versus a DIMM-pooled MC-DLA node), not for quoting a build.
// Every assumption is one exported field of Model, so a study can re-price
// the space without touching the simulators.
package cost

import (
	"fmt"

	"github.com/memcentric/mcdla/internal/core"
	"github.com/memcentric/mcdla/internal/units"
)

// Model holds the unit prices the bill of materials is computed from.
type Model struct {
	// HBMPerGB prices on-package stacked memory ($/GB).
	HBMPerGB float64
	// DeviceHBMGB is the HBM capacity of one accelerator (GB) — the Table
	// II device is V100-class.
	DeviceHBMGB float64
	// DeviceBase prices one accelerator package and carrier excluding its
	// HBM stacks.
	DeviceBase float64
	// RDIMMPerGB / LRDIMMPerGB price commodity DDR4 modules ($/GB); load
	// reduction carries a premium.
	RDIMMPerGB  float64
	LRDIMMPerGB float64
	// MemNodeBoard prices one memory-node carrier: protocol engine, DMA
	// unit, memory controller, and the V100-mezzanine-sized board itself.
	MemNodeBoard float64
	// LinkPerGBps prices high-bandwidth signaling per GB/s per endpoint
	// (serdes, cabling, and the switch port share).
	LinkPerGBps float64
	// HostBase prices the two-socket host: CPUs, board, NICs, chassis.
	HostBase float64
	// HostDRAMPerGB prices server DDR4 in the host's trims.
	HostDRAMPerGB float64
	// HostDRAMGB / HostVirtDRAMGB size the host memory: every node carries
	// HostDRAMGB for the framework and input pipeline, and designs that
	// virtualize device memory into the host (DC-DLA, HC-DLA) add
	// HostVirtDRAMGB of backing capacity on top.
	HostDRAMGB     float64
	HostVirtDRAMGB float64
	// HostBWPerGBps prices host memory-system headroom above the baseline
	// socket ($ per GB/s): the overprovisioned CPU the host-centric design
	// leans on is not free.
	HostBWPerGBps float64
	// HostBaseGBps is the socket bandwidth included in HostBase; only the
	// headroom above it is charged.
	HostBaseGBps float64
	// CompressorPerDevice prices a cDMA compressing DMA engine.
	CompressorPerDevice float64
}

// Default returns the reference price catalog. See the README's cost-model
// assumptions table for the sourcing rationale of each figure.
func Default() Model {
	return Model{
		HBMPerGB:            20,
		DeviceHBMGB:         32,
		DeviceBase:          8000,
		RDIMMPerGB:          8,
		LRDIMMPerGB:         11,
		MemNodeBoard:        450,
		LinkPerGBps:         4,
		HostBase:            8000,
		HostDRAMPerGB:       10,
		HostDRAMGB:          192,
		HostVirtDRAMGB:      768,
		HostBWPerGBps:       50,
		HostBaseGBps:        80,
		CompressorPerDevice: 400,
	}
}

// Validate reports nonsensical catalogs (negative unit prices).
func (m Model) Validate() error {
	for _, v := range []struct {
		name string
		v    float64
	}{
		{"HBMPerGB", m.HBMPerGB}, {"DeviceHBMGB", m.DeviceHBMGB},
		{"DeviceBase", m.DeviceBase}, {"RDIMMPerGB", m.RDIMMPerGB},
		{"LRDIMMPerGB", m.LRDIMMPerGB}, {"MemNodeBoard", m.MemNodeBoard},
		{"LinkPerGBps", m.LinkPerGBps}, {"HostBase", m.HostBase},
		{"HostDRAMPerGB", m.HostDRAMPerGB}, {"HostDRAMGB", m.HostDRAMGB},
		{"HostVirtDRAMGB", m.HostVirtDRAMGB}, {"HostBWPerGBps", m.HostBWPerGBps},
		{"HostBaseGBps", m.HostBaseGBps}, {"CompressorPerDevice", m.CompressorPerDevice},
	} {
		if v.v < 0 {
			return fmt.Errorf("cost: %s must be nonnegative, got %g", v.name, v.v)
		}
	}
	return nil
}

// Item is one bill-of-materials line.
type Item struct {
	Component string  `json:"component"`
	Qty       float64 `json:"qty"`
	UnitUSD   float64 `json:"unit_usd"`
	USD       float64 `json:"usd"`
}

// BOM is the priced bill of materials of one design point.
type BOM struct {
	Design string `json:"design"`
	Items  []Item `json:"items"`
}

// Total reports the bill's bottom line.
func (b BOM) Total() float64 {
	var t float64
	for _, it := range b.Items {
		t += it.USD
	}
	return t
}

func (b *BOM) add(component string, qty, unit float64) {
	if qty == 0 || unit == 0 {
		return
	}
	b.Items = append(b.Items, Item{Component: component, Qty: qty, UnitUSD: unit, USD: qty * unit})
}

// dimmPerGB picks the $/GB rate for a module kind.
func (m Model) dimmPerGB(kind string) float64 {
	if kind == "LRDIMM" {
		return m.LRDIMMPerGB
	}
	return m.RDIMMPerGB
}

// Price computes the bill of materials of one node built as design d:
// accelerators with their HBM and link complexes, the host with its DRAM
// (virtualization-sized for the host-interface designs, plus socket
// bandwidth headroom for HC-DLA's overprovisioned CPU), and the memory-node
// boards with their DIMM populations and links for the memory-centric
// designs. The oracle prices as its buildable DC-DLA shell — its infinite
// device memory is free only because it does not exist.
func (m Model) Price(d core.Design) BOM {
	b := BOM{Design: d.Name}
	w := float64(d.Workers)
	b.add("accelerator (excl. HBM)", w, m.DeviceBase)
	b.add("device HBM (GB)", w*m.DeviceHBMGB, m.HBMPerGB)
	b.add("device links (GB/s)", w*float64(d.Device.Links)*d.Device.LinkBW.GBps(), m.LinkPerGBps)

	b.add("host (2-socket)", 1, m.HostBase)
	hostDRAM := m.HostDRAMGB
	if d.HostInterface && !d.Oracle {
		hostDRAM += m.HostVirtDRAMGB
		b.add("cDMA compressor", w*m.compressors(d), m.CompressorPerDevice)
		if head := d.HostSocketBW.GBps() - m.HostBaseGBps; head > 0 {
			b.add("host socket BW headroom (GB/s)", head, m.HostBWPerGBps)
		}
	}
	b.add("host DRAM (GB)", hostDRAM, m.HostDRAMPerGB)

	if d.MemNodes > 0 {
		n := float64(d.MemNodes)
		cap := float64(d.MemNode.Capacity()) / float64(units.GB)
		b.add("memory-node board", n, m.MemNodeBoard)
		b.add(fmt.Sprintf("memory-node DIMMs (GB, %s)", d.MemNode.DIMM.Kind),
			n*cap, m.dimmPerGB(d.MemNode.DIMM.Kind))
		b.add("memory-node links (GB/s)", n*float64(d.MemNode.Links)*d.MemNode.LinkBW.GBps(), m.LinkPerGBps)
	}
	return b
}

// compressors reports whether d carries a cDMA engine per device: the
// design's virtualization bandwidth exceeding its physical PCIe-class link
// marks the compressed path (the sensitivity and dse studies model cDMA by
// widening VirtBW).
func (m Model) compressors(d core.Design) float64 {
	if d.Compressed {
		return 1
	}
	return 0
}

// PoolCapacity reports the design's backing-store pool: the memory-node
// boards' aggregate DIMM capacity for the memory-centric designs, the
// host's virtualization DRAM for the host-interface ones, and zero for the
// oracle (whose pool is fictional).
func (m Model) PoolCapacity(d core.Design) units.Bytes {
	switch {
	case d.MemNodes > 0:
		return units.Bytes(int64(d.MemNode.Capacity()) * int64(d.MemNodes))
	case d.HostInterface && !d.Oracle:
		return units.Bytes(m.HostVirtDRAMGB * float64(units.GB))
	}
	return 0
}

// PerfPerDollar reports throughput per thousand dollars of bill — the
// figure of merit the paper's DIMM-versus-HBM argument optimizes.
func PerfPerDollar(throughput, totalUSD float64) float64 {
	if totalUSD <= 0 {
		return 0
	}
	// The (totalUSD / 1000) grouping is golden-pinned: rewriting it as
	// throughput*1000/totalUSD rounds differently in the last ulp.
	return throughput / (totalUSD / 1000) //mcdlalint:allow floatguard -- totalUSD <= 0 returns above; /1000 keeps it nonzero
}

// PerfPerWatt reports throughput per watt of wall power (power.DesignPower
// supplies the denominator for a design point).
func PerfPerWatt(throughput, watts float64) float64 {
	if watts <= 0 {
		return 0
	}
	return throughput / watts
}
