package core

import (
	"fmt"

	"github.com/memcentric/mcdla/internal/collective"
	"github.com/memcentric/mcdla/internal/sim"
	"github.com/memcentric/mcdla/internal/trace"
	"github.com/memcentric/mcdla/internal/train"
	"github.com/memcentric/mcdla/internal/units"
)

// Breakdown holds the three standalone latency categories of Figure 11.
// They are raw sums — the paper notes their total exceeds the iteration time
// because frameworks overlap computation with synchronization and memory
// virtualization.
type Breakdown struct {
	Compute units.Time
	Sync    units.Time
	Virt    units.Time
}

// Total reports the stacked-bar height.
func (b Breakdown) Total() units.Time { return b.Compute + b.Sync + b.Virt }

// Result is one simulated training iteration of one design point.
type Result struct {
	Design   string
	Workload string
	Strategy train.Strategy
	// Precision is the schedule's number-format policy.
	Precision train.Precision

	// IterationTime is the end-to-end latency of one training iteration on
	// the 8-device node (compute, collectives, and DMAs overlapped).
	IterationTime units.Time

	// Breakdown holds the Figure 11 standalone category sums.
	Breakdown Breakdown

	// VirtTraffic is the per-device backing-store traffic per iteration.
	VirtTraffic units.Bytes
	// SyncTraffic is the per-device collective payload per iteration.
	SyncTraffic units.Bytes

	// HostBytes is the per-device traffic landing in CPU memory (zero for
	// MC-DLA designs and the oracle).
	HostBytes units.Bytes
	// AvgHostSocketBW / MaxHostSocketBW are the Figure 12 per-socket CPU
	// memory bandwidth usage numbers (DevicesPerSocket × per-device rates).
	AvgHostSocketBW units.Bandwidth
	MaxHostSocketBW units.Bandwidth

	// StallVirt is iteration time spent blocked on prefetches (diagnostic).
	StallVirt units.Time
}

// Performance reports 1/time normalized against a reference result
// (typically the oracle): ref.Time / r.Time.
func (r Result) Performance(ref Result) float64 {
	if r.IterationTime <= 0 {
		return 0
	}
	return ref.IterationTime.Seconds() / r.IterationTime.Seconds()
}

// Simulate runs one training iteration of schedule s on design d. The eight
// workers are symmetric (both parallelization strategies give every device
// identical work), so a single device timeline plus shared-channel flows
// reproduces the node's behaviour exactly.
func Simulate(d Design, s *train.Schedule) (Result, error) {
	return SimulateTraced(d, s, nil)
}

// SimulateTraced is Simulate with an optional execution-trace sink: compute
// spans, DMA activity, stalls and collective waits are recorded against the
// device timeline (tr may be nil).
func SimulateTraced(d Design, s *train.Schedule, tr *trace.Log) (Result, error) {
	if err := d.Validate(); err != nil {
		return Result{}, err
	}
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	if d.Workers != s.Workers {
		return Result{}, fmt.Errorf("core: design has %d workers but schedule has %d", d.Workers, s.Workers)
	}

	prep, err := s.Prepared(d.Oracle)
	if err != nil {
		return Result{}, err
	}
	virtRate := d.EffectiveVirtBW()
	if virtRate <= 0 {
		virtRate = units.GBps(1) // an oracle moves no virtualization bytes
	}

	// Channel layout: MC-DLA designs carry virtualization DMAs and
	// collectives over the same link complex; DC-DLA and HC-DLA use
	// disjoint fabrics.
	var virt, sync sim.Group
	if d.SharedLinks {
		ch := sim.NewChannel("links", d.LinkComplexBW)
		// The DMA engine's link group and the collective rings each top out
		// below the full link complex; shared groups keep their aggregates
		// honest while still letting them contend for the shared links.
		virt = ch.Group(virtRate, true)
		sync = ch.Group(d.Sync.AggregateBW(), true)
	} else {
		// The host channel runs at the policy bandwidth; each DMA moves at
		// most the device's socket share of it.
		virt = sim.NewChannel("host", max(d.VirtBW, virtRate)).Group(virtRate, false)
		if s.Workers > 1 {
			sync = sim.NewChannel("rings", d.Sync.AggregateBW()).Group(d.Sync.AggregateBW(), false)
		}
	}

	if tr != nil {
		tr.Label = d.Name + " x " + s.Name
	}
	rings := &ringSync{cfg: d.Sync, tr: tr}
	if s.Workers > 1 {
		// A collective with a single participant is a no-op: a one-worker
		// node prices no ring (and without shared links has no fabric).
		rings.g = sync
	}
	it := Iteration{Device: d.Device, Sched: s, Prep: prep, Virt: virt, Trace: tr}
	it.Run(rings)
	end := it.End

	res := Result{
		Design:        d.Name,
		Workload:      s.Name,
		Strategy:      s.Strategy,
		Precision:     s.Precision,
		IterationTime: end,
		Breakdown:     Breakdown{Compute: it.Compute, Sync: rings.sync},
		VirtTraffic:   it.VirtBytes,
		SyncTraffic:   rings.traffic,
		StallVirt:     it.StallVirt,
	}
	// Standalone virtualization latency for the Figure 11 stack: the DMA
	// time of the whole traffic at the design's nominal policy bandwidth.
	if !d.Oracle {
		res.Breakdown.Virt = units.TransferTime(res.VirtTraffic, d.VirtBW)
	}

	// Figure 12 accounting.
	virtCh := virt.Channel()
	if d.HostInterface && !d.Oracle {
		res.HostBytes = res.VirtTraffic
		devs := d.DevicesPerSocket
		if d.Workers < devs {
			devs = d.Workers
		}
		if end > 0 {
			res.AvgHostSocketBW = units.Bandwidth(float64(res.HostBytes) * float64(devs) / end.Seconds())
		}
		res.MaxHostSocketBW = units.Bandwidth(float64(virtCh.Stats().PeakRate) * float64(devs))
	}
	tr.Tally(virtCh.Stats())
	if syncCh := sync.Channel(); syncCh != nil && syncCh != virtCh {
		tr.Tally(syncCh.Stats())
	}
	return res, nil
}

// MustSimulate is Simulate for experiment harnesses with static configs.
func MustSimulate(d Design, s *train.Schedule) Result {
	r, err := Simulate(d, s)
	if err != nil {
		panic(err)
	}
	return r
}

// ringSync prices each collective as one ring flow in the node's sync
// group (zero for a single worker, whose collectives are no-ops); the
// data-parallel dW reductions trail the backward pass and land at its end.
type ringSync struct {
	g       sim.Group
	cfg     collective.Config
	tr      *trace.Log
	sync    units.Time
	traffic units.Bytes
	pending []*sim.Flow
}

func (rs *ringSync) start(at units.Time, op train.SyncOp) *sim.Flow {
	cost := collective.Estimate(op.Op, op.Bytes, rs.cfg)
	rs.sync += cost.Latency(rs.cfg.AggregateBW())
	rs.traffic += op.Bytes
	return rs.g.Channel().Start(at, rs.g, cost.WireBytes, cost.Fixed, 0)
}

func (rs *ringSync) Blocking(issue, resume units.Time, op train.SyncOp) units.Time {
	if rs.g.Channel() == nil {
		return resume
	}
	return rs.g.Channel().Wait(resume, rs.start(issue, op))
}

func (rs *ringSync) Overlapped(_ int, t units.Time, ops []train.SyncOp) {
	for _, op := range ops {
		if rs.g.Channel() != nil {
			rs.pending = append(rs.pending, rs.start(t, op))
		}
	}
}

func (rs *ringSync) Boundary(units.Time) {}

func (rs *ringSync) Drain(t units.Time) units.Time {
	end := t
	for _, f := range rs.pending {
		if done := rs.g.Channel().Wait(end, f); done > end {
			end = done
		}
	}
	rs.tr.Add("tail/dW-reductions", "", trace.SyncWait, t, end)
	return end
}
