package dse

import (
	"context"
	"fmt"
	"sort"

	"github.com/memcentric/mcdla/internal/core"
	"github.com/memcentric/mcdla/internal/surrogate"
	"github.com/memcentric/mcdla/internal/train"
	"github.com/memcentric/mcdla/internal/units"
)

// featureSpace maps a candidate's non-bandwidth axes onto the surrogate's
// feature coordinates. Categorical axes (workload, design family, strategy,
// compression) are spaced 100 apart so the inverse-distance kernel treats
// candidates across them as essentially unrelated, while the ordered axes
// (batch, seqlen, precision) sit 1 apart so calibration bleeds between
// adjacent scenario sizes. The bandwidth axes (Links, LinkGBps, MemNodes,
// DIMM) are deliberately ABSENT: candidates along a bandwidth sweep share
// one feature vector, their calibration ratio is therefore constant, and the
// prediction inherits the analytic model's monotonicity in link bandwidth —
// the property the surrogate tests pin.
type featureSpace struct {
	workload map[string]int
	design   map[string]int
	strategy map[train.Strategy]int
	batch    map[int]int
	seqlen   map[int]int
	prec     map[train.Precision]int
}

func newFeatureSpace(s Space) *featureSpace {
	f := &featureSpace{
		workload: make(map[string]int, len(s.Workloads)),
		design:   make(map[string]int, len(s.Designs)),
		strategy: make(map[train.Strategy]int, len(s.Strategies)),
		batch:    make(map[int]int, len(s.Batches)),
		seqlen:   make(map[int]int, len(s.SeqLens)),
		prec:     make(map[train.Precision]int, len(s.Precisions)),
	}
	for i, v := range s.Workloads {
		f.workload[v] = i
	}
	for i, v := range s.Designs {
		f.design[v] = i
	}
	for i, v := range s.Strategies {
		f.strategy[v] = i
	}
	for i, v := range s.Batches {
		f.batch[v] = i
	}
	for i, v := range s.SeqLens {
		f.seqlen[v] = i
	}
	for i, v := range s.Precisions {
		f.prec[v] = i
	}
	return f
}

func (f *featureSpace) vector(p Point) []float64 {
	var compress float64
	if p.Compress {
		compress = 100
	}
	return []float64{
		100 * float64(f.workload[p.Workload]),
		100 * float64(f.design[p.Design]),
		100 * float64(f.strategy[p.Strategy]),
		compress,
		float64(f.batch[p.Batch]),
		float64(f.seqlen[p.SeqLen]),
		float64(f.prec[p.Precision]),
	}
}

// halving is the surrogate-guided successive-halving driver: simulate the
// greedy corner seeds, train the surrogate on everything simulated so far,
// predict the rest, and full-simulate only the candidates the union frontier
// (measured metrics where available, predictions elsewhere) places on its
// unconfirmed band — repeating until the frontier is fully simulated or the
// budget (half the grid) is spent. Statically infeasible candidates are
// pruned up front exactly like the grid driver; predicted candidates are
// never pruned on the throughput floor, since a wrong prediction there would
// silently hide a feasible frontier member.
func (a *archive) halving(ctx context.Context, space Space, pts []Point) error {
	l := newLattice(space)
	budget := len(pts) / 2
	if budget < 1 {
		budget = len(pts)
	}
	feats := newFeatureSpace(l.s)

	type cand struct {
		p                      Point
		f                      []float64
		analytic               float64 // closed-form iteration estimate, seconds
		costUSD, powerW, capTB float64
		pruned                 bool
	}

	// The analytic estimator only needs one schedule per scenario — design
	// points sharing a workload reuse it (and its vmem analysis) here, just
	// as the engine's memo does for the real simulations.
	type scenario struct {
		workload       string
		batch, workers int
		strategy       train.Strategy
		seqLen         int
		precision      train.Precision
	}
	scheds := make(map[scenario]*train.Schedule)
	schedule := func(p Point) (*train.Schedule, error) {
		key := scenario{p.Workload, p.Batch, p.workers(), p.Strategy, p.SeqLen, p.Precision}
		if s, ok := scheds[key]; ok {
			return s, nil
		}
		s, err := train.BuildSeq(p.Workload, p.Batch, p.workers(), p.Strategy, p.SeqLen, p.Precision)
		if err != nil {
			return nil, err
		}
		scheds[key] = s
		return s, nil
	}

	cands := make([]cand, len(pts))
	for i, p := range pts {
		d, err := a.designFor(p)
		if err != nil {
			return err
		}
		c := cand{p: p}
		c.costUSD, c.powerW, c.capTB = statics(d, a.opts.Cost)
		if !a.opts.Constraints.admitStatic(c.costUSD, c.powerW) {
			// Statically infeasible: account the prune here (batch never
			// sees the candidate) and keep it out of every band.
			c.pruned = true
			if !a.seen[p] {
				a.seen[p] = true
				a.pruned++
			}
		} else {
			s, err := schedule(p)
			if err != nil {
				return err
			}
			est, err := core.EstimateIteration(d, s)
			if err != nil {
				return err
			}
			c.analytic = est.Iteration.Seconds()
			c.f = feats.vector(p)
		}
		cands[i] = c
	}

	metricsFor := func(c *cand, iter units.Time) Metrics {
		return Metrics{
			Throughput: float64(c.p.Batch) / iter.Seconds(),
			CostUSD:    c.costUSD,
			PowerW:     c.powerW,
			EnergyJ:    c.powerW * iter.Seconds(),
			CapacityTB: c.capTB,
		}
	}

	// Seed round: the same corner set the greedy driver starts from.
	var seeds []Point
	seedSeen := make(map[Point]bool)
	for _, idx := range l.corners() {
		p := l.point(idx)
		if a.seen[p] || seedSeen[p] || len(seeds) >= budget {
			continue
		}
		seedSeen[p] = true
		seeds = append(seeds, p)
	}
	if err := a.batch(ctx, seeds); err != nil {
		return err
	}

	model := &surrogate.Model{}
	var samples []surrogate.Sample
	for {
		a.rounds++

		// Train on every simulation so far, feasible or not, in candidate
		// order (the model is sample-order deterministic).
		samples = samples[:0]
		for i := range cands {
			c := &cands[i]
			iter, ok := a.sims[c.p]
			if c.pruned || !ok {
				continue
			}
			samples = append(samples, surrogate.Sample{
				Features: c.f, Analytic: c.analytic, Simulated: iter.Seconds(),
			})
		}
		model.Train(samples)

		// Union frontier: measured metrics where a simulation exists (only
		// feasible ones compete), predictions everywhere else.
		type row struct {
			ci        int
			predicted bool
			m         Metrics
			iter      units.Time
		}
		var rows []row
		var vecs [][]float64
		for i := range cands {
			c := &cands[i]
			if c.pruned {
				continue
			}
			if iter, ok := a.sims[c.p]; ok {
				m := metricsFor(c, iter)
				if !a.opts.Constraints.Admit(m) {
					continue
				}
				rows = append(rows, row{ci: i, m: m, iter: iter})
			} else {
				iter := units.Seconds(model.Predict(c.f, c.analytic))
				if iter <= 0 {
					return fmt.Errorf("dse: surrogate predicted a nonpositive iteration for %q", c.p.Recipe())
				}
				rows = append(rows, row{ci: i, predicted: true, m: metricsFor(c, iter), iter: iter})
			}
			vecs = append(vecs, rows[len(rows)-1].m.Vector())
		}
		frontier, _ := Frontier(vecs)
		var band []row
		for _, fi := range frontier {
			if rows[fi].predicted {
				band = append(band, rows[fi])
			}
		}
		if len(band) == 0 {
			return nil // converged: the frontier is fully simulated
		}
		obj := a.opts.Objective
		sort.SliceStable(band, func(i, j int) bool {
			si, sj := obj.Score(band[i].m), obj.Score(band[j].m)
			if si != sj {
				return si > sj
			}
			return band[i].ci < band[j].ci
		})
		remaining := budget - a.simulated
		if remaining <= 0 {
			// Budget spent with predictions still on the frontier: surface
			// them with their provenance instead of silently dropping them.
			for _, r := range band {
				a.predicted = append(a.predicted, Evaluated{
					Point: cands[r.ci].p, Iter: r.iter, Metrics: r.m, Source: "predicted",
				})
			}
			return nil
		}
		if len(band) > remaining {
			band = band[:remaining]
		}
		next := make([]Point, len(band))
		for i, r := range band {
			next[i] = cands[r.ci].p
		}
		if err := a.batch(ctx, next); err != nil {
			return err
		}
	}
}
