// Package scaleout implements the paper's §VI future-work direction: the
// Figure 15 datacenter-level device-side interconnect plane. NVSwitch-class
// device-side switches let a system node house device-nodes and memory-nodes
// behind a non-blocking crossbar, and uplinks tie the system nodes into a
// plane of hundreds of devices — "tightly integrating thousands of GPUs
// across hundreds of system nodes". The package models such a plane, its
// hierarchical ring collectives (intra-node over the switch, inter-node over
// the uplinks), and the memory-node pool it exposes, and extends the §V
// evaluation beyond one node with two engines: Simulate, the event-driven
// plane simulation that drives one representative device per system node
// over real sim.Channels (per-chassis switch link complexes, a shared
// uplink carrying the inter-node shard rings, memory-node delivery as a
// group cap), and Estimate, the retired first-order closed form kept for
// analytic-vs-event-driven comparison. Simulate runs the node engine's
// device-iteration kernel, core.Iteration: the plane supplies only its
// channel layout, its prefetch window, its staged hierarchical collectives
// (stagedSync) with the hybrid strategy's uplink dW reductions, and its
// own result fields. Both engines read their per-device schedules from the
// plane's Schedules source, and the package keeps no cache of its own: a
// caller that sweeps plane sizes passes a memo (the experiments package
// passes its runner engine's).
package scaleout

import (
	"fmt"
	"math"

	"github.com/memcentric/mcdla/internal/accel"
	"github.com/memcentric/mcdla/internal/collective"
	"github.com/memcentric/mcdla/internal/core"
	"github.com/memcentric/mcdla/internal/memnode"
	"github.com/memcentric/mcdla/internal/runner"
	"github.com/memcentric/mcdla/internal/train"
	"github.com/memcentric/mcdla/internal/units"
	"github.com/memcentric/mcdla/internal/vmem"
)

// Plane describes a scale-out device-side interconnect plane.
type Plane struct {
	// SystemNodes is the number of switch-equipped chassis in the plane.
	SystemNodes int
	// DevicesPerNode / MemNodesPerNode populate each chassis (Figure 15
	// draws 8 nodes per system node with N=3 links each).
	DevicesPerNode  int
	MemNodesPerNode int
	// LinksPerDevice is each node's high-bandwidth link count into the
	// switch.
	LinksPerDevice int
	// LinkBW is the per-link, per-direction bandwidth.
	LinkBW units.Bandwidth
	// UplinkBW is each system node's aggregate bandwidth into the
	// inter-node plane.
	UplinkBW units.Bandwidth
	// MemNode describes the memory-node boards.
	MemNode memnode.Config
	// Device describes the accelerator.
	Device accel.Config
	// HostBW is the per-device legacy PCIe bandwidth (the DC-plane
	// baseline's virtualization path).
	HostBW units.Bandwidth
	// Schedules supplies the per-device schedule of a plane point (the
	// job's design is ignored), typically a memo such as
	// runner.Engine.Schedule; nil builds each one afresh.
	Schedules func(runner.Job) (*train.Schedule, error)
}

// Default returns the Figure 15 running configuration: system nodes housing
// 8 device-nodes and 8 memory-nodes behind an NVSwitch-class crossbar with
// N=3 links per node, DGX-2-class uplink provisioning, and the Table II
// device and memory-node.
func Default(systemNodes int) Plane {
	return Plane{
		SystemNodes:     systemNodes,
		DevicesPerNode:  8,
		MemNodesPerNode: 8,
		LinksPerDevice:  3,
		LinkBW:          units.GBps(25),
		UplinkBW:        units.GBps(300),
		MemNode:         memnode.Default(),
		Device:          accel.Default(),
		HostBW:          units.GBps(12),
	}
}

// Validate reports configuration errors.
func (p Plane) Validate() error {
	switch {
	case p.SystemNodes <= 0:
		return fmt.Errorf("scaleout: need at least one system node")
	case p.DevicesPerNode <= 0:
		return fmt.Errorf("scaleout: need at least one device per node")
	case p.MemNodesPerNode < 0:
		return fmt.Errorf("scaleout: memory-node count must be nonnegative")
	case p.LinksPerDevice <= 0 || p.LinkBW <= 0:
		return fmt.Errorf("scaleout: links per device and link bandwidth must be positive")
	case p.SystemNodes > 1 && p.UplinkBW <= 0:
		return fmt.Errorf("scaleout: multi-node planes need uplink bandwidth")
	case p.HostBW <= 0:
		return fmt.Errorf("scaleout: host bandwidth must be positive")
	}
	return p.Device.Validate()
}

// schedule returns the per-device schedule of workload trained at
// globalBatch across workers under strategy, from the plane's source.
func (p Plane) schedule(workload string, globalBatch, workers int, strategy train.Strategy) (*train.Schedule, error) {
	if p.Schedules == nil {
		return train.BuildSeq(workload, globalBatch, workers, strategy, 0, train.FP16)
	}
	return p.Schedules(runner.Job{Workload: workload, Batch: globalBatch, Workers: workers, Strategy: strategy})
}

// TotalDevices reports the plane's device count.
func (p Plane) TotalDevices() int { return p.SystemNodes * p.DevicesPerNode }

// PoolCapacity reports the plane-wide deviceremote pool.
func (p Plane) PoolCapacity() units.Bytes {
	return units.Bytes(int64(p.SystemNodes) * int64(p.MemNodesPerNode) * int64(p.MemNode.Capacity()))
}

// DeviceLinkBW reports one device's aggregate switch bandwidth.
func (p Plane) DeviceLinkBW() units.Bandwidth {
	return units.Bandwidth(float64(p.LinkBW) * float64(p.LinksPerDevice))
}

// VirtBW reports the per-device virtualization bandwidth toward the
// memory-nodes. The switch lets every device stripe over its full link set
// (the crossbar subsumes the BW_AWARE left/right split), bounded by the
// memory-nodes' aggregate delivery capability shared across local devices.
func (p Plane) VirtBW() units.Bandwidth {
	if p.MemNodesPerNode == 0 || p.DevicesPerNode == 0 {
		return 0
	}
	link := p.DeviceLinkBW()
	memAgg := float64(p.MemNode.MemBW()) * float64(p.MemNodesPerNode) / float64(p.DevicesPerNode)
	if float64(link) < memAgg {
		return link
	}
	return units.Bandwidth(memAgg)
}

// intraConfig casts the switch into rings among the local device-nodes.
// A crossbar can realize any ring embedding, so hop count equals the device
// count and the full link set carries the striped data.
func (p Plane) intraConfig() collective.Config {
	return collective.Config{
		Nodes:      p.DevicesPerNode,
		Rings:      float64(p.LinksPerDevice),
		LinkBW:     p.LinkBW,
		ChunkBytes: collective.DefaultChunk,
		StepAlpha:  collective.DefaultAlpha,
	}
}

// interConfig casts the uplink plane into a ring of system nodes.
func (p Plane) interConfig() collective.Config {
	return collective.Config{
		Nodes:      p.SystemNodes,
		Rings:      1,
		LinkBW:     p.UplinkBW,
		ChunkBytes: collective.DefaultChunk,
		StepAlpha:  collective.DefaultAlpha,
	}
}

// AllReduce estimates a plane-wide all-reduce of size bytes per device using
// the standard hierarchical decomposition: local reduce-scatter, inter-node
// all-reduce of the 1/D shard, local all-gather.
func (p Plane) AllReduce(size units.Bytes) units.Time {
	if p.DevicesPerNode <= 0 {
		return 0
	}
	intra := p.intraConfig()
	local := collective.Latency(collective.AllReduce, size, intra)
	if p.SystemNodes == 1 {
		return local
	}
	// Local phases: reduce-scatter + all-gather ≈ one all-reduce's wire
	// time; the inter-node ring moves the per-device shard.
	shard := units.Bytes(float64(size)/float64(p.DevicesPerNode) + 0.5)
	inter := collective.Latency(collective.AllReduce, shard, p.interConfig())
	return local + inter
}

// IterationEstimate is the first-order scale-out model of one data-parallel
// training iteration: compute and virtualization shrink with the worker
// count (the batch splits plane-wide) while the dW all-reduce crosses the
// hierarchy.
type IterationEstimate struct {
	Devices int
	Compute units.Time
	Virt    units.Time
	Sync    units.Time
	// Iteration assumes the §V overlap discipline: virtualization hides
	// under compute up to the channel's ability, and the gradient
	// all-reduce trails the backward pass.
	Iteration units.Time
}

// validateMemCentric rejects memory-centric planes that cannot back a single
// byte: without memory-nodes the virtualization bandwidth is zero, and
// units.TransferTime over zero bandwidth is +Inf — which used to leak out of
// Estimate as an infinite iteration time and NaN speedups downstream.
func (p Plane) validateMemCentric() error {
	if p.MemNodesPerNode == 0 {
		return fmt.Errorf("scaleout: memory-centric plane needs memory-nodes (MemNodesPerNode = 0)")
	}
	if p.VirtBW() <= 0 {
		return fmt.Errorf("scaleout: memory-centric plane has no deviceremote bandwidth (%d memory-nodes delivering %v)",
			p.MemNodesPerNode, p.MemNode.MemBW())
	}
	return nil
}

// Estimate computes the iteration estimate for a workload trained
// data-parallel across the whole plane. memCentric selects the MC-plane
// (memory-nodes as backing store) versus the DC-plane baseline (PCIe to
// host memory).
func (p Plane) Estimate(workload string, globalBatch int, memCentric bool) (IterationEstimate, error) {
	if err := p.Validate(); err != nil {
		return IterationEstimate{}, err
	}
	if memCentric {
		if err := p.validateMemCentric(); err != nil {
			return IterationEstimate{}, err
		}
	}
	devices := p.TotalDevices()
	if globalBatch%devices != 0 {
		return IterationEstimate{}, fmt.Errorf("scaleout: batch %d not divisible by %d devices", globalBatch, devices)
	}
	s, err := p.schedule(workload, globalBatch, devices, train.DataParallel)
	if err != nil {
		return IterationEstimate{}, err
	}
	g := s.Graph

	var compute units.Time
	for _, l := range g.Layers {
		w := s.Work[l.ID]
		var in int64
		for _, id := range l.Inputs {
			in += g.Layer(id).OutBytes()
		}
		var ew int64
		if l.EwOps > 0 {
			ew = l.Out.Elems()
		}
		weight := w.WeightBytes
		if g.Timesteps > 1 {
			weight /= int64(g.Timesteps)
		}
		ft := p.Device.WorkTime(w.GEMMs, in+weight+w.OutputBytes, ew, l.EwOps)
		compute += units.Time((1 + accel.BackwardFactor) * float64(ft))
	}

	prep, err := s.Prepared(false)
	if err != nil {
		return IterationEstimate{}, err
	}
	plan := prep.Plan
	// The virtualization policy trades stashes for recompute bursts; the
	// re-executed layers are real device time and belong in the compute
	// term (omitting them made the estimate diverge hardest on the
	// recompute-heavy CNNs once the event engine charged them honestly).
	// Each recomputed layer counts once, summed in layer order so float64
	// accumulation is run-to-run identical.
	fwd := core.ForwardPrices(p.Device, s)
	for _, l := range g.Layers {
		if plan.Tensors[l.ID].Action == vmem.Recompute {
			compute += fwd[l.ID]
		}
	}
	virtBW := p.HostBW
	if memCentric {
		virtBW = p.VirtBW()
	}
	virt := units.TransferTime(units.Bytes(plan.TrafficBytes()), virtBW)

	sync := p.AllReduce(units.Bytes(g.TotalWeightBytes()))

	// Overlap: offload/prefetch hide under compute; the residual spills.
	iter := compute
	if virt > compute {
		iter = virt
	}
	iter += sync
	return IterationEstimate{
		Devices:   devices,
		Compute:   compute,
		Virt:      virt,
		Sync:      sync,
		Iteration: iter,
	}, nil
}

// ScalingPoint is one plane size's result for the scale-out study.
type ScalingPoint struct {
	SystemNodes int
	Devices     int
	// IterDC / IterMC are the absolute iteration times of the two planes.
	IterDC, IterMC units.Time
	// SpeedupDC / SpeedupMC are strong-scaling speedups over the first
	// point's plane of the same design.
	SpeedupDC, SpeedupMC float64
	// PoolTB is the plane-wide memory pool.
	PoolTB float64
}

// EvalPoint evaluates one plane of the §VI study on the chosen engine and
// returns the point with its absolute iteration times (speedups are filled
// in by the study against its first point). Every evaluation must yield a
// finite, positive iteration time; configuration errors (e.g. a
// memory-centric plane without memory-nodes) propagate instead of turning
// into Inf/NaN rows.
func (p Plane) EvalPoint(workload string, globalBatch int, analytic bool) (ScalingPoint, error) {
	var dcIter, mcIter units.Time
	if analytic {
		dc, err := p.Estimate(workload, globalBatch, false)
		if err != nil {
			return ScalingPoint{}, err
		}
		mc, err := p.Estimate(workload, globalBatch, true)
		if err != nil {
			return ScalingPoint{}, err
		}
		dcIter, mcIter = dc.Iteration, mc.Iteration
	} else {
		dc, err := p.Simulate(workload, globalBatch, false, DataParallel)
		if err != nil {
			return ScalingPoint{}, err
		}
		mc, err := p.Simulate(workload, globalBatch, true, DataParallel)
		if err != nil {
			return ScalingPoint{}, err
		}
		dcIter, mcIter = dc.Iteration, mc.Iteration
	}
	if !(dcIter > 0) || !(mcIter > 0) || math.IsInf(dcIter.Seconds(), 0) || math.IsInf(mcIter.Seconds(), 0) {
		return ScalingPoint{}, fmt.Errorf("scaleout: %d-node plane produced a degenerate iteration time (DC %v, MC %v)",
			p.SystemNodes, dcIter, mcIter)
	}
	return ScalingPoint{
		SystemNodes: p.SystemNodes,
		Devices:     p.TotalDevices(),
		IterDC:      dcIter,
		IterMC:      mcIter,
		PoolTB:      float64(p.PoolCapacity()) / 1e12,
	}, nil
}

// FillSpeedups normalizes a study's points against its first point.
func FillSpeedups(pts []ScalingPoint) {
	if len(pts) == 0 {
		return
	}
	baseDC, baseMC := pts[0].IterDC.Seconds(), pts[0].IterMC.Seconds()
	for i := range pts {
		if pts[i].IterDC > 0 {
			pts[i].SpeedupDC = baseDC / pts[i].IterDC.Seconds()
		}
		if pts[i].IterMC > 0 {
			pts[i].SpeedupMC = baseMC / pts[i].IterMC.Seconds()
		}
	}
}
