// Package core assembles the paper's six system design points and runs full
// training iterations over them with the discrete-event engine. It is the
// "in-house system-level simulator" of §IV: per-layer compute latencies come
// from the accel PE-array model, memory-overlaying DMAs and ring collectives
// become bandwidth flows on shared channels, and the outputs are the latency
// breakdowns (Figure 11), CPU-memory-bandwidth usage (Figure 12), and
// end-to-end performance (Figures 13/14) of the evaluation.
package core

import (
	"fmt"
	"strconv"

	"github.com/memcentric/mcdla/internal/accel"
	"github.com/memcentric/mcdla/internal/collective"
	"github.com/memcentric/mcdla/internal/memnode"
	"github.com/memcentric/mcdla/internal/units"
	"github.com/memcentric/mcdla/internal/vmem"
)

// DesignKind enumerates the evaluated system architectures (§V).
type DesignKind int

const (
	// DCDLA is the device-centric baseline: DGX-style cube-mesh rings for
	// collectives, PCIe gen3 to host memory for virtualization.
	DCDLA DesignKind = iota
	// HCDLA is the host-centric design: half the high-bandwidth links go to
	// an (overprovisioned) CPU, halving the device-side rings.
	HCDLA
	// MCDLAS is the star/folded MC-DLA of Figure 7(a,b): two dedicated
	// links to a designated memory-node per device.
	MCDLAS
	// MCDLAL is the ring MC-DLA of Figure 7(c) with LOCAL page placement
	// (one neighbour, N·B/2).
	MCDLAL
	// MCDLAB is the ring MC-DLA with BW_AWARE placement (both neighbours,
	// N·B).
	MCDLAB
	// DCDLAO is the unbuildable oracle: DC-DLA with infinite device memory,
	// no virtualization traffic at all.
	DCDLAO
)

func (k DesignKind) String() string {
	switch k {
	case DCDLA:
		return "DC-DLA"
	case HCDLA:
		return "HC-DLA"
	case MCDLAS:
		return "MC-DLA(S)"
	case MCDLAL:
		return "MC-DLA(L)"
	case MCDLAB:
		return "MC-DLA(B)"
	case DCDLAO:
		return "DC-DLA(O)"
	}
	return fmt.Sprintf("DesignKind(%d)", int(k))
}

// Design is a fully parameterized system design point.
type Design struct {
	Kind   DesignKind
	Name   string
	Device accel.Config

	// VirtBW is the per-device DMA throughput toward the backing store:
	// PCIe gen3 (DC-DLA), the CPU-side link group (HC-DLA), or the
	// memory-node links under the placement policy (MC-DLA variants).
	VirtBW units.Bandwidth

	// Oracle disables virtualization (infinite devicelocal memory).
	Oracle bool

	// Compressed marks a cDMA compressing DMA engine on the virtualization
	// path: the §V-B sensitivity and the dse studies model cDMA by widening
	// VirtBW with the workload's compression factor, and the cost model
	// prices the per-device compressor from this flag.
	Compressed bool

	// SharedLinks is true when virtualization DMAs and collectives contend
	// for the same physical link complex (the MC-DLA designs); DC-DLA and
	// HC-DLA carry them on disjoint fabrics (PCIe/CPU-links vs device
	// rings).
	SharedLinks bool

	// LinkComplexBW is the device's total link capacity backing the shared
	// channel (N×B for MC-DLA).
	LinkComplexBW units.Bandwidth

	// Sync configures the ring collectives.
	Sync collective.Config

	// HostInterface marks designs whose virtualization traffic lands in CPU
	// memory (Figure 12 accounting).
	HostInterface bool
	// DevicesPerSocket is the host attachment fan-in (4 in all designs).
	DevicesPerSocket int
	// HostSocketBW is the per-socket CPU memory bandwidth nominally
	// available (Xeon-class 80 GB/s for DC-DLA; the hypothetical 300 GB/s
	// socket of HC-DLA). Usage is recorded against it but — following the
	// paper's conservative methodology — never throttles.
	HostSocketBW units.Bandwidth
	// HostSocketShared, when positive, caps the aggregate virtualization
	// throughput of a socket's devices (the §V-D scalability experiment
	// models the shared host root complex this way; the main experiments
	// leave it zero). Simulate enforces each device's share per DMA flow,
	// not on the device's total: a device with several DMAs in flight
	// exceeds it (EXPERIMENTS.md §V-D).
	HostSocketShared units.Bandwidth

	// Workers is the device count participating in the node.
	Workers int

	// MemNode describes the memory-node boards (MC-DLA designs only).
	MemNode memnode.Config
	// MemNodes is the memory-node board count (MC-DLA designs only; the
	// paper's ring interleaves one board per device). The cost and power
	// models price the boards from it; the dse package scales VirtBW when
	// it sweeps a partially populated ring.
	MemNodes int
	// Placement is the deviceremote page policy (MC-DLA designs only).
	Placement vmem.Placement
}

// PCIe generation bandwidths (per device, ×16).
const (
	PCIeGen3BW = 16 // GB/s
	PCIeGen4BW = 32 // GB/s
)

// syncConfig builds the collective configuration for a ring set.
func syncConfig(nodes int, rings float64, linkBW units.Bandwidth) collective.Config {
	return collective.Config{
		Nodes:      nodes,
		Rings:      rings,
		LinkBW:     linkBW,
		ChunkBytes: collective.DefaultChunk,
		StepAlpha:  collective.DefaultAlpha,
	}
}

// PCIeEfficiency is the sustained fraction of the raw ×16 link rate a bulk
// DMA achieves through the DGX-class PCIe switch tree (TLP/DLLP protocol
// overhead plus switch arbitration): gen3 ×16 sustains ≈12 of its 16 GB/s.
const PCIeEfficiency = 0.75

// pciePerDevice reports the sustained per-device host DMA bandwidth over one
// PCIe generation's ×16 link.
func pciePerDevice(linkGBps float64) units.Bandwidth {
	return units.GBps(linkGBps * PCIeEfficiency)
}

// NewDCDLA builds the baseline: Figure 5 cube-mesh (3 rings of 8) plus PCIe
// gen3 host links behind shared PCIe switches.
func NewDCDLA(dev accel.Config, workers int) Design {
	return Design{
		Kind:             DCDLA,
		Name:             "DC-DLA",
		Device:           dev,
		VirtBW:           pciePerDevice(PCIeGen3BW),
		Sync:             syncConfig(workers, float64(dev.Links)/2, dev.LinkBW),
		HostInterface:    true,
		DevicesPerSocket: 4,
		HostSocketBW:     units.GBps(80),
		Workers:          workers,
	}
}

// NewDCDLAGen4 is the §V-B sensitivity variant with doubled PCIe bandwidth.
func NewDCDLAGen4(dev accel.Config, workers int) Design {
	d := NewDCDLA(dev, workers)
	d.Name = "DC-DLA(gen4)"
	d.VirtBW = pciePerDevice(PCIeGen4BW)
	return d
}

// NewHCDLA builds the host-centric design (§II-C): ⌊N/2⌋ links to the CPU
// (75 GB/s of virtualization throughput at N=6), the other ⌈N/2⌉ left for
// the device rings (1.5 rings), and a hypothetical 300 GB/s CPU socket that
// absorbs the traffic.
func NewHCDLA(dev accel.Config, workers int) Design {
	toHost := dev.Links / 2
	toDev := dev.Links - toHost
	return Design{
		Kind:             HCDLA,
		Name:             "HC-DLA",
		Device:           dev,
		VirtBW:           units.Bandwidth(float64(dev.LinkBW) * float64(toHost)),
		Sync:             syncConfig(workers, float64(toDev)/2, dev.LinkBW),
		HostInterface:    true,
		DevicesPerSocket: 4,
		HostSocketBW:     units.GBps(300),
		Workers:          workers,
	}
}

// mcdla fills the fields common to the three MC-DLA variants.
func mcdla(kind DesignKind, name string, dev accel.Config, workers, ringNodes int, virtBW units.Bandwidth, placement vmem.Placement) Design {
	return Design{
		Kind:          kind,
		Name:          name,
		Device:        dev,
		VirtBW:        virtBW,
		SharedLinks:   true,
		LinkComplexBW: dev.AggregateLinkBW(),
		Sync:          syncConfig(ringNodes, float64(dev.Links)/2, dev.LinkBW),
		Workers:       workers,
		MemNode:       memnode.Default(),
		MemNodes:      workers,
		Placement:     placement,
	}
}

// The folded rings of MC-DLA(S), Figure 7(b), are drawn for the DGX
// example alone: eight devices of six links each, with the memory-nodes
// folded inward. The paper gives its three rings as 8, 12 and 20 hops; a
// ring collective runs at the pace of the longest.
const (
	foldedDevices  = 8
	foldedLinks    = 6
	foldedRingHops = 20
)

// NewMCDLAS builds the star/folded design point of Figure 7(a,b): each
// device reaches its designated memory-node over two links (2×B), and the
// collective rings are unbalanced — latency follows the longest (20-hop)
// ring. The ring length holds for the DGX example only; DesignFor refuses
// any other link complex.
func NewMCDLAS(dev accel.Config, workers int) Design {
	return mcdla(MCDLAS, "MC-DLA(S)", dev, workers, foldedRingHops,
		units.Bandwidth(2*float64(dev.LinkBW)), vmem.Local)
}

// NewMCDLAL builds the ring design with LOCAL placement: one neighbouring
// memory-node reachable at N·B/2.
func NewMCDLAL(dev accel.Config, workers int) Design {
	return mcdla(MCDLAL, "MC-DLA(L)", dev, workers, 2*workers,
		vmem.Local.RemoteBandwidth(dev.Links, dev.LinkBW), vmem.Local)
}

// NewMCDLAB builds the proposed ring design with BW_AWARE placement: both
// neighbours striped, N·B.
func NewMCDLAB(dev accel.Config, workers int) Design {
	return mcdla(MCDLAB, "MC-DLA(B)", dev, workers, 2*workers,
		vmem.BWAware.RemoteBandwidth(dev.Links, dev.LinkBW), vmem.BWAware)
}

// NewDCDLAO builds the oracle: DC-DLA communication with infinite
// devicelocal memory.
func NewDCDLAO(dev accel.Config, workers int) Design {
	d := NewDCDLA(dev, workers)
	d.Kind = DCDLAO
	d.Name = "DC-DLA(O)"
	d.Oracle = true
	d.HostInterface = false
	return d
}

// StandardDesigns returns the six design points of Figure 11/13, in the
// paper's presentation order, for the Table II device and 8 workers.
func StandardDesigns() []Design {
	dev := accel.Default()
	const workers = 8
	return []Design{
		NewDCDLA(dev, workers),
		NewHCDLA(dev, workers),
		NewMCDLAS(dev, workers),
		NewMCDLAL(dev, workers),
		NewMCDLAB(dev, workers),
		NewDCDLAO(dev, workers),
	}
}

// DesignByName resolves a design constructor by its paper name.
func DesignByName(name string) (Design, error) {
	return DesignFor(name, accel.Default(), 8)
}

// DesignFor resolves a design constructor by its paper name and builds the
// design point from the given device configuration and worker count — the
// parameterized form behind the dse package's link-technology axes (a custom
// dev reshapes the link complex, the rings, and the derived virtualization
// bandwidth exactly as the constructors do for the Table II device).
// MC-DLA(S) is the exception: its 20-hop ring is the Figure 7(b) count for
// the eight-device, six-link DGX example, so any other device or link count
// is a ParamError.
func DesignFor(name string, dev accel.Config, workers int) (Design, error) {
	switch name {
	case "DC-DLA":
		return NewDCDLA(dev, workers), nil
	case "DC-DLA(gen4)":
		return NewDCDLAGen4(dev, workers), nil
	case "HC-DLA":
		return NewHCDLA(dev, workers), nil
	case "MC-DLA(S)":
		switch {
		case dev.Links != foldedLinks:
			return Design{}, &ParamError{"links", strconv.Itoa(dev.Links), fmt.Sprintf("MC-DLA(S) folds its rings over exactly %d links per device", foldedLinks)}
		case workers != foldedDevices:
			return Design{}, &ParamError{"workers", strconv.Itoa(workers), fmt.Sprintf("MC-DLA(S) folds its rings over exactly %d devices", foldedDevices)}
		}
		return NewMCDLAS(dev, workers), nil
	case "MC-DLA(L)":
		return NewMCDLAL(dev, workers), nil
	case "MC-DLA(B)":
		return NewMCDLAB(dev, workers), nil
	case "DC-DLA(O)":
		return NewDCDLAO(dev, workers), nil
	}
	return Design{}, fmt.Errorf("core: unknown design %q", name)
}

// ParamError rejects a design point for the value of one parameter. Param
// is the parameter's bare name (links, workers, memnodes, dimm, compress),
// which is how HTTP spells it; a front end with another spelling renders
// the error through Spell, so the CLI says -links where HTTP says links.
type ParamError struct {
	Param, Value, Reason string
}

func (e *ParamError) Error() string { return e.Spell("") }

// Spell renders the error with the parameter name behind prefix.
func (e *ParamError) Spell(prefix string) string {
	return fmt.Sprintf("invalid %s%s value %q: %s", prefix, e.Param, e.Value, e.Reason)
}

// Validate reports configuration errors.
func (d Design) Validate() error {
	if err := d.Device.Validate(); err != nil {
		return err
	}
	if !d.Oracle && d.VirtBW <= 0 {
		return fmt.Errorf("core: %s: virtualization bandwidth must be positive", d.Name)
	}
	if d.Workers <= 0 {
		return fmt.Errorf("core: %s: workers must be positive", d.Name)
	}
	if d.SharedLinks && d.LinkComplexBW <= 0 {
		return fmt.Errorf("core: %s: shared designs need a link-complex capacity", d.Name)
	}
	if d.Workers > 1 {
		if err := d.Sync.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// EffectiveVirtBW reports the per-device virtualization throughput after the
// optional shared-socket cap (all DevicesPerSocket devices active).
func (d Design) EffectiveVirtBW() units.Bandwidth {
	bw := d.VirtBW
	if d.HostSocketShared > 0 && d.DevicesPerSocket > 0 {
		perSocket := d.Workers
		if perSocket > d.DevicesPerSocket {
			perSocket = d.DevicesPerSocket
		}
		if perSocket > 0 {
			share := units.Bandwidth(float64(d.HostSocketShared) / float64(perSocket))
			if share < bw {
				bw = share
			}
		}
	}
	return bw
}
