// Package power implements the §V-C power-efficiency analysis: memory-node
// TDPs from the Table IV DIMM catalog, system-level power overhead over the
// DGX-1V baseline, and the resulting performance-per-watt of MC-DLA.
package power

import (
	"fmt"

	"github.com/memcentric/mcdla/internal/core"
	"github.com/memcentric/mcdla/internal/memnode"
)

// DGX-1V system envelope (§V-C).
const (
	// DGXSystemTDPWatts is the NVIDIA DGX-1V system TDP.
	DGXSystemTDPWatts = 3200.0
	// GPUTDPWatts is one V100's TDP; eight of them consume 75% of the
	// system budget.
	GPUTDPWatts = 300.0
	// GPUCount is the number of accelerators per node.
	GPUCount = 8
)

// SystemReport quantifies one memory-node population choice.
type SystemReport struct {
	DIMM memnode.DIMM
	// NodeTDP is one memory-node's power (10 DIMMs).
	NodeTDP float64
	// AddedPower is the eight memory-nodes' total draw.
	AddedPower float64
	// SystemPower is the MC-DLA node's total (DGX + memory-nodes).
	SystemPower float64
	// OverheadFraction is AddedPower / DGXSystemTDP.
	OverheadFraction float64
	// PoolTB is the added memory capacity in TB.
	PoolTB float64
	// GBPerWatt is the capacity efficiency of the memory-nodes.
	GBPerWatt float64
}

// Analyze computes the report for a DIMM choice, assuming the paper's
// 8-node, 10-DIMM-per-node configuration.
func Analyze(d memnode.DIMM) SystemReport {
	cfg := memnode.Default()
	cfg.DIMM = d
	node := cfg.TDPWatts()
	added := node * GPUCount
	return SystemReport{
		DIMM:             d,
		NodeTDP:          node,
		AddedPower:       added,
		SystemPower:      DGXSystemTDPWatts + added,
		OverheadFraction: added / DGXSystemTDPWatts,
		PoolTB:           float64(memnode.PoolCapacity(cfg, GPUCount)) / 1e12,
		GBPerWatt:        cfg.GBPerWatt(),
	}
}

// AnalyzeAll reports every catalog DIMM, smallest first.
func AnalyzeAll() []SystemReport {
	cat := memnode.Catalog()
	out := make([]SystemReport, 0, len(cat))
	for _, d := range cat {
		out = append(out, Analyze(d))
	}
	return out
}

// HostTDPWatts is the non-accelerator share of the DGX-1V envelope (CPUs,
// DRAM, fans, NICs): the 3200 W system minus eight 300 W devices.
const HostTDPWatts = DGXSystemTDPWatts - GPUCount*GPUTDPWatts

// DesignPower reports the wall power of one node built as design d: the
// accelerator TDPs, the host share of the DGX envelope, and — for the
// memory-centric designs — the memory-node boards' DIMM power on top. It is
// the denominator of the dse package's perf/W metric, consistent with the
// Table IV accounting (Analyze) at the paper's 8-device, 8-board point.
func DesignPower(d core.Design) float64 {
	w := GPUTDPWatts*float64(d.Workers) + HostTDPWatts
	if d.MemNodes > 0 {
		w += d.MemNode.TDPWatts() * float64(d.MemNodes)
	}
	return w
}

// PerfPerWatt converts a speedup into performance-per-watt gain given the
// power overhead fraction: speedup / (1 + overhead). The paper's headline:
// 2.8× / 1.31 ≈ 2.1× (128 GB LRDIMMs) up to 2.8× / 1.07 ≈ 2.6× (8 GB
// RDIMMs).
func PerfPerWatt(speedup, overheadFraction float64) float64 {
	if overheadFraction < 0 {
		panic(fmt.Sprintf("power: negative overhead %g", overheadFraction))
	}
	return speedup / (1 + overheadFraction) //mcdlalint:allow floatguard -- overhead is validated nonnegative above, so the divisor is >= 1
}

// LowPowerChoice returns the 8 GB RDIMM report (the paper's pick for
// power-limited environments: +7% system power).
func LowPowerChoice() SystemReport { return Analyze(memnode.Catalog()[0]) }

// HighCapacityChoice returns the 128 GB LRDIMM report (the paper's pick for
// capacity: 10.4 TB pool, +31% system power, highest GB/W).
func HighCapacityChoice() SystemReport {
	cat := memnode.Catalog()
	return Analyze(cat[len(cat)-1])
}
