package core

import (
	"fmt"

	"github.com/memcentric/mcdla/internal/accel"
	"github.com/memcentric/mcdla/internal/collective"
	"github.com/memcentric/mcdla/internal/train"
	"github.com/memcentric/mcdla/internal/units"
)

// IterationEstimate is the first-order single-node model of one training
// iteration: the standalone category sums of SimulateTraced priced without
// the event engine, combined under the §V overlap discipline (virtualization
// hides under compute up to the channel's ability; collectives trail the
// backward pass).
type IterationEstimate struct {
	Compute units.Time
	Virt    units.Time
	Sync    units.Time
	// Iteration = max(Compute, Virt) + Sync.
	Iteration units.Time
}

// EstimateIteration is the resurrected first-order closed form of one
// training iteration — the analytic counterpart of SimulateTraced, mirroring
// the scale-out estimator's overlap model. It is deliberately cheap (no
// channels, no flows) and feeds the surrogate predictor, which recalibrates
// it against real simulations of neighbouring design points; it is NOT the
// evaluation's source of truth, the event engine is.
func EstimateIteration(d Design, s *train.Schedule) (IterationEstimate, error) {
	if err := d.Validate(); err != nil {
		return IterationEstimate{}, err
	}
	if err := s.Validate(); err != nil {
		return IterationEstimate{}, err
	}
	if d.Workers != s.Workers {
		return IterationEstimate{}, fmt.Errorf("core: design has %d workers but schedule has %d", d.Workers, s.Workers)
	}
	prep, err := s.Prepared(d.Oracle)
	if err != nil {
		return IterationEstimate{}, err
	}
	g := s.Graph
	fwd := ForwardPrices(d.Device, s)

	var est IterationEstimate
	for _, l := range g.Layers {
		est.Compute += units.Time((1 + accel.BackwardFactor) * float64(fwd[l.ID]))
	}
	// Recompute bursts are real device time (the engine charges them in its
	// compute category), each recomputed layer once; sum in layer order so
	// float accumulation is run-to-run identical.
	recompute := make([]bool, len(g.Layers))
	for _, l := range g.Layers {
		for _, rid := range prep.Recompute[l.ID] {
			recompute[rid] = true
		}
	}
	for _, l := range g.Layers {
		if recompute[l.ID] {
			est.Compute += fwd[l.ID]
		}
	}

	if !d.Oracle {
		// The plan's byte accounting is the graph's 2-byte base; StashBytes
		// applies the same scale the engine applies per tensor.
		traffic := s.StashBytes(prep.Plan.TrafficBytes())
		est.Virt = units.TransferTime(traffic, d.EffectiveVirtBW())
	}

	if s.Workers > 1 {
		ringBW := d.Sync.AggregateBW()
		for _, w := range s.Work {
			for _, op := range w.FwdSync {
				est.Sync += collective.Estimate(op.Op, op.Bytes, d.Sync).Latency(ringBW)
			}
			for _, op := range w.BwdSync {
				est.Sync += collective.Estimate(op.Op, op.Bytes, d.Sync).Latency(ringBW)
			}
		}
	}

	est.Iteration = est.Compute
	if est.Virt > est.Iteration {
		est.Iteration = est.Virt
	}
	est.Iteration += est.Sync
	return est, nil
}
