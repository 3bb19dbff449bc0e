// Package accel models the DL accelerator device-node of Table II: a spatial
// array of processing elements (PEs) in the style of Eyeriss/DaDianNao, each
// with a multitude of MAC operators and double-buffered local SRAM, backed by
// on-package high-bandwidth memory with fixed bandwidth and latency. The
// model optimizes generic GEMM with an output-stationary dataflow (§IV), so
// it covers convolutional, recurrent, fully-connected and elementwise layers
// through a single roofline-with-utilization estimate.
package accel

import (
	"fmt"

	"github.com/memcentric/mcdla/internal/dnn"
	"github.com/memcentric/mcdla/internal/units"
)

// Config describes a device-node (Table II baseline values via Default).
type Config struct {
	Name string
	// PEs is the processing-element count of the spatial array.
	PEs int
	// MACsPerPE is the vector MAC width of one PE.
	MACsPerPE int
	// FreqHz is the PE clock.
	FreqHz float64
	// SRAMPerPE is the double-buffered local buffer size per PE.
	SRAMPerPE units.Bytes
	// MemBW is the devicelocal (HBM) bandwidth.
	MemBW units.Bandwidth
	// MemLatencyCycles is the fixed devicelocal access latency.
	MemLatencyCycles int
	// Links is N, the high-bandwidth link count per node.
	Links int
	// LinkBW is B, the per-link uni-directional bandwidth.
	LinkBW units.Bandwidth
}

// Default returns the Table II device-node configuration: 1024 PEs × 125
// MACs at 1 GHz (a V100-class 128 TMAC/s device), 32 KB SRAM per PE, 900
// GB/s HBM at 100 cycles, and N=6 links of B=25 GB/s.
func Default() Config {
	return Config{
		Name:             "device-node",
		PEs:              1024,
		MACsPerPE:        125,
		FreqHz:           1e9,
		SRAMPerPE:        32 * units.KB,
		MemBW:            units.GBps(900),
		MemLatencyCycles: 100,
		Links:            6,
		LinkBW:           units.GBps(25),
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.PEs <= 0:
		return fmt.Errorf("accel: %s: PEs must be positive", c.Name)
	case c.MACsPerPE <= 0:
		return fmt.Errorf("accel: %s: MACsPerPE must be positive", c.Name)
	case c.FreqHz <= 0:
		return fmt.Errorf("accel: %s: frequency must be positive", c.Name)
	case c.MemBW <= 0:
		return fmt.Errorf("accel: %s: memory bandwidth must be positive", c.Name)
	case c.Links <= 0 || c.LinkBW <= 0:
		return fmt.Errorf("accel: %s: links and link bandwidth must be positive", c.Name)
	}
	return nil
}

// PriceKey returns c with every field a layer's compute price does not
// read zeroed: the PE array, clock and devicelocal memory stay, the name,
// SRAM and links go. Configs with one key price every layer alike, and the
// key itself prices as c does.
func (c Config) PriceKey() Config {
	return Config{PEs: c.PEs, MACsPerPE: c.MACsPerPE, FreqHz: c.FreqHz, MemBW: c.MemBW, MemLatencyCycles: c.MemLatencyCycles}
}

// PeakMACsPerSec reports the array's peak MAC throughput.
func (c Config) PeakMACsPerSec() float64 {
	return float64(c.PEs) * float64(c.MACsPerPE) * c.FreqHz
}

// AggregateLinkBW reports N×B, the node's total link bandwidth per direction.
func (c Config) AggregateLinkBW() units.Bandwidth {
	return units.Bandwidth(float64(c.LinkBW) * float64(c.Links))
}

// MemLatency reports the fixed devicelocal access latency as time.
func (c Config) MemLatency() units.Time {
	return units.Time(float64(c.MemLatencyCycles) / c.FreqHz)
}

// GEMMTime estimates the execution time of one GEMM under the
// output-stationary dataflow. Output tiles are parked on the PE array
// (M·N outputs spread across PEs); the K dimension streams through each
// PE's vector MACs. Partially filled tiles lower utilization exactly as a
// rigid spatial array would: cycles = ceil(MN/PEs)·ceil(K/MACsPerPE).
// The result is the max of that compute time and the HBM roofline over the
// bytes the layer must move (double-buffered SRAM overlaps the two), plus
// the fixed memory latency once per operand stream.
func (c Config) GEMMTime(g dnn.GEMM, hbmBytes int64) units.Time {
	if g.MACs() == 0 {
		return 0
	}
	outputs := g.M * g.N
	tiles := ceilDiv(outputs, int64(c.PEs))
	kSteps := ceilDiv(g.K, int64(c.MACsPerPE))
	cycles := tiles * kSteps
	compute := units.Time(float64(cycles) / c.FreqHz)
	mem := units.TransferTime(units.Bytes(hbmBytes), c.MemBW) + c.MemLatency()
	return units.MaxTime(compute, mem)
}

// ElementwiseTime estimates a vector-pipeline layer (activation, pooling,
// normalization...): opsPerElem operations per element across the MAC lanes,
// bounded below by streaming the elements through HBM twice (read + write).
func (c Config) ElementwiseTime(elems, opsPerElem int64) units.Time {
	if elems == 0 {
		return 0
	}
	ops := float64(elems * maxInt64(opsPerElem, 1))
	compute := units.Time(ops / c.PeakMACsPerSec())
	bytes := units.Bytes(2 * elems * dnn.ElemBytes)
	mem := units.TransferTime(bytes, c.MemBW) + c.MemLatency()
	return units.MaxTime(compute, mem)
}

// WorkTime estimates the latency of an arbitrary unit of layer work: a set
// of GEMMs against hbmBytes of memory traffic, followed by an elementwise
// epilogue of ewElems × ewOps operations. This is the entry point the system
// simulator prices every layer, or model-parallel layer slice, through
// (core.LayerFwdTime).
func (c Config) WorkTime(gemms []dnn.GEMM, hbmBytes, ewElems, ewOps int64) units.Time {
	var total units.Time
	if len(gemms) > 0 {
		per := hbmBytes / int64(len(gemms))
		for _, g := range gemms {
			total += c.GEMMTime(g, per)
		}
		if ewElems > 0 && ewOps > 0 {
			total += c.ElementwiseTime(ewElems, ewOps)
		}
		return total
	}
	return c.ElementwiseTime(ewElems, ewOps)
}

// BackwardFactor is the canonical cost ratio of backward to forward
// propagation for GEMM layers: backprop runs two GEMMs (dX = dY·Wᵀ and
// dW = Xᵀ·dY) for every forward one.
const BackwardFactor = 2.0

func ceilDiv(a, b int64) int64 {
	if b <= 0 {
		panic("accel: ceilDiv by nonpositive divisor")
	}
	return (a + b - 1) / b
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
