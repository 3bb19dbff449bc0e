package dse

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"github.com/memcentric/mcdla/internal/core"
	"github.com/memcentric/mcdla/internal/cost"
	"github.com/memcentric/mcdla/internal/runner"
	"github.com/memcentric/mcdla/internal/units"
)

// SearchKind selects the search driver.
type SearchKind int

const (
	// Grid simulates every feasible candidate of the space.
	Grid SearchKind = iota
	// Greedy runs Pareto local search: seed the axis corners, simulate,
	// and repeatedly expand the lattice neighbors of the current frontier
	// until no frontier member has an unexplored neighbor. Regions of the
	// space that are dominated more than one step away from the frontier
	// are never simulated.
	Greedy
	// Surrogate runs successive halving over a calibrated analytic
	// predictor: seed the axis corners, train the surrogate on everything
	// simulated so far, and only full-simulate the candidates the predictor
	// places on the Pareto frontier, until the frontier is fully confirmed
	// or the simulation budget (half the grid) is spent.
	Surrogate
)

func (k SearchKind) String() string {
	switch k {
	case Grid:
		return "grid"
	case Greedy:
		return "greedy"
	case Surrogate:
		return "surrogate"
	default:
		return "grid"
	}
}

// ParseSearch resolves a CLI/HTTP spelling.
func ParseSearch(s string) (SearchKind, error) {
	switch strings.ToLower(s) {
	case "grid", "exhaustive":
		return Grid, nil
	case "greedy", "hill", "pareto-local":
		return Greedy, nil
	case "surrogate", "halving", "successive-halving":
		return Surrogate, nil
	}
	return 0, fmt.Errorf("dse: unknown search %q (want grid, greedy or surrogate)", s)
}

// Runner abstracts the parallel simulation pool; *runner.Engine implements
// it, and the experiments package passes its shared engine so optimizer
// candidates hit the same memo cache as every other study.
type Runner interface {
	Run(ctx context.Context, jobs []runner.Job, progress func(runner.Update)) ([]core.Result, error)
}

// Options configures a search.
type Options struct {
	Search      SearchKind
	Objective   Objective
	Constraints Constraints
	// Cost is the price catalog; the zero value selects cost.Default().
	Cost cost.Model
	// Progress receives per-job updates from the underlying engine runs
	// (nil disables streaming).
	Progress func(runner.Update)
}

// Result is the outcome of one search.
type Result struct {
	Search      SearchKind  `json:"search"`
	Objective   Objective   `json:"-"`
	Constraints Constraints `json:"constraints"`
	// GridSize is the distinct candidate count of the space; Simulated
	// counts the candidates actually run (grid: every feasible candidate;
	// greedy: the frontier's explored neighborhood). Pruned counts
	// candidates rejected on the analytic cost/power bounds without a
	// simulation, and Infeasible the simulated ones that missed the
	// throughput floor.
	GridSize   int `json:"grid_size"`
	Simulated  int `json:"simulated"`
	Pruned     int `json:"pruned"`
	Infeasible int `json:"infeasible"`
	// Frontier is the Pareto frontier over {throughput, -cost, -energy,
	// capacity} of the feasible evaluated candidates, sorted by the
	// objective (best first, candidate order on ties). Dominated counts
	// the feasible candidates not on the frontier.
	Frontier  []Evaluated `json:"frontier"`
	Dominated int         `json:"dominated"`
	// Evaluated lists every feasible simulated candidate in candidate
	// order (the frontier is a subset).
	Evaluated []Evaluated `json:"-"`
	// Rounds counts the surrogate driver's successive-halving rounds (zero
	// for the other drivers).
	Rounds int `json:"rounds,omitempty"`
	// PredictedFrontier lists the frontier candidates the surrogate budget
	// left unconfirmed, best predicted objective first, with predicted
	// metrics and Source "predicted". Empty once the search converges.
	PredictedFrontier []Evaluated `json:"predicted_frontier,omitempty"`
	// DesignDerivations / DesignCacheHits count core design constructions
	// versus archive cache reuse across the search — engine accounting the
	// dse tests pin so the per-evaluation re-derivation fix sticks.
	DesignDerivations int `json:"-"`
	DesignCacheHits   int `json:"-"`
}

// Search runs the configured driver over the space on eng and extracts the
// frontier. Cancelling ctx aborts between (and inside) engine runs: queued
// simulations stop being scheduled and the context error is returned.
func Search(ctx context.Context, eng Runner, space Space, opts Options) (Result, error) {
	if opts.Cost == (cost.Model{}) {
		opts.Cost = cost.Default()
	}
	if err := opts.Cost.Validate(); err != nil {
		return Result{}, err
	}
	pts, err := space.Points()
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Search:      opts.Search,
		Objective:   opts.Objective,
		Constraints: opts.Constraints,
		GridSize:    len(pts),
	}
	a := &archive{
		opts:    opts,
		eng:     eng,
		seen:    make(map[Point]bool, len(pts)),
		index:   make(map[Point]int, len(pts)),
		designs: make(map[Point]core.Design),
		sims:    make(map[Point]units.Time, len(pts)),
	}
	for i, p := range pts {
		a.index[p] = i
	}
	switch opts.Search {
	case Greedy:
		err = a.greedy(ctx, space)
	case Surrogate:
		a.source = "simulated"
		err = a.halving(ctx, space, pts)
	default:
		err = a.batch(ctx, pts)
	}
	if err != nil {
		return Result{}, err
	}
	res.Simulated, res.Pruned, res.Infeasible = a.simulated, a.pruned, a.infeasible
	res.Rounds = a.rounds
	res.PredictedFrontier = a.predicted
	res.DesignDerivations, res.DesignCacheHits = a.derived, a.designHits

	// Candidate order makes the frontier extraction independent of the
	// order the searches discovered points in.
	sort.Slice(a.feasible, func(i, j int) bool {
		return a.index[a.feasible[i].Point] < a.index[a.feasible[j].Point]
	})
	res.Evaluated = a.feasible
	vecs := make([][]float64, len(a.feasible))
	for i, e := range a.feasible {
		vecs[i] = e.Metrics.Vector()
	}
	frontier, _ := Frontier(vecs)
	res.Dominated = len(a.feasible) - len(frontier)
	res.Frontier = make([]Evaluated, len(frontier))
	for i, idx := range frontier {
		res.Frontier[i] = a.feasible[idx]
	}
	obj := opts.Objective
	sort.SliceStable(res.Frontier, func(i, j int) bool {
		si, sj := obj.Score(res.Frontier[i].Metrics), obj.Score(res.Frontier[j].Metrics)
		if si != sj {
			return si > sj
		}
		return a.index[res.Frontier[i].Point] < a.index[res.Frontier[j].Point]
	})
	return res, nil
}

// archive accumulates search state: which candidates were seen (simulated
// or pruned), the feasible evaluations, and the accounting.
type archive struct {
	opts Options
	eng  Runner

	seen     map[Point]bool
	index    map[Point]int // candidate order, for deterministic sorting
	feasible []Evaluated
	// sims records every simulated candidate's iteration time, feasible or
	// not — the surrogate trains on all of them.
	sims map[Point]units.Time
	// designs caches derived core designs by their design-relevant axes so
	// candidates that differ only on workload/strategy/precision reuse one
	// derivation (see designKey).
	designs             map[Point]core.Design
	derived, designHits int
	// source tags evaluations for report provenance ("" except under the
	// surrogate driver).
	source string
	// rounds / predicted are surrogate-driver accounting.
	rounds    int
	predicted []Evaluated

	simulated, pruned, infeasible int
}

// designKey collapses the axes DesignPoint does not read: strategy and
// precision never shape the design, and the workload axes (workload, batch,
// seqlen) only feed the cDMA compression ratio, so they stay in the key only
// for compressed candidates.
func designKey(p Point) Point {
	p.Strategy = 0
	p.Precision = 0
	if !p.Compress {
		p.Workload, p.Batch, p.SeqLen = "", 0, 0
	}
	return p
}

// designFor derives the candidate's core design through the archive cache.
func (a *archive) designFor(p Point) (core.Design, error) {
	k := designKey(p)
	if d, ok := a.designs[k]; ok {
		a.designHits++
		return d, nil
	}
	d, err := p.DesignPoint()
	if err != nil {
		return core.Design{}, err
	}
	a.derived++
	a.designs[k] = d
	return d, nil
}

// batch evaluates the not-yet-seen candidates of pts: analytic constraint
// bounds prune without simulating, the rest go to the engine as one grid.
// The design (and for compressed candidates the workload graph behind the
// cDMA ratio) is derived once per candidate and reused for the job and the
// static metrics.
func (a *archive) batch(ctx context.Context, pts []Point) error {
	type candidate struct {
		p                      Point
		costUSD, powerW, capTB float64
	}
	var jobs []runner.Job
	var run []candidate
	for _, p := range pts {
		if a.seen[p] {
			continue
		}
		a.seen[p] = true
		d, err := a.designFor(p)
		if err != nil {
			return err
		}
		costUSD, powerW, capTB := statics(d, a.opts.Cost)
		if !a.opts.Constraints.admitStatic(costUSD, powerW) {
			a.pruned++
			continue
		}
		jobs = append(jobs, p.Job(d))
		run = append(run, candidate{p: p, costUSD: costUSD, powerW: powerW, capTB: capTB})
	}
	if len(jobs) == 0 {
		return nil
	}
	a.simulated += len(jobs)
	rs, err := a.eng.Run(ctx, jobs, a.opts.Progress)
	if err != nil {
		return err
	}
	for i, c := range run {
		iter := rs[i].IterationTime
		a.sims[c.p] = iter
		m := Metrics{
			Throughput: float64(c.p.Batch) / iter.Seconds(),
			CostUSD:    c.costUSD,
			PowerW:     c.powerW,
			EnergyJ:    c.powerW * iter.Seconds(),
			CapacityTB: c.capTB,
		}
		if !a.opts.Constraints.Admit(m) {
			a.infeasible++
			continue
		}
		a.feasible = append(a.feasible, Evaluated{Point: c.p, Iter: iter, Metrics: m, Source: a.source})
	}
	return nil
}

// greedy is Pareto local search over the space's lattice: evaluate the axis
// corners, then expand the one-step lattice neighbors of the current
// frontier until a fixpoint. The final frontier equals the grid frontier
// whenever the frontier is connected under the one-step neighbor relation
// (the property test pins this on the default study), while interior
// dominated regions — a wider precision at the same price, an overbuilt
// link complex — are never simulated.
func (a *archive) greedy(ctx context.Context, space Space) error {
	l := newLattice(space)
	// Seeds: the all-first and all-last corners of every categorical
	// (workload × design × strategy) combination, so each design family
	// starts from its cheapest and its most provisioned configuration.
	// The precision axis stays at its first (narrowest) value in both
	// corners: a wider format costs the same and runs strictly slower, so
	// the search only widens it if the frontier pulls that way.
	var pending []Point
	var pendingIdx [][]int
	addPending := func(idx []int) {
		p := l.point(idx)
		if !a.seen[p] {
			pending = append(pending, p)
			pendingIdx = append(pendingIdx, append([]int(nil), idx...))
		}
	}
	for _, idx := range l.corners() {
		addPending(idx)
	}

	// idxOf remembers a lattice index vector for each evaluated point so
	// frontier members can be expanded (any representative works: the
	// one-step neighborhoods of two vectors normalizing to the same point
	// cover the same normalized candidates along the axes that matter).
	idxOf := make(map[Point][]int)
	for i, p := range pending {
		if _, ok := idxOf[p]; !ok {
			idxOf[p] = pendingIdx[i]
		}
	}
	for len(pending) > 0 {
		if err := a.batch(ctx, pending); err != nil {
			return err
		}
		vecs := make([][]float64, len(a.feasible))
		for i, e := range a.feasible {
			vecs[i] = e.Metrics.Vector()
		}
		frontier, _ := Frontier(vecs)
		pending, pendingIdx = nil, nil
		for _, fi := range frontier {
			base, ok := idxOf[a.feasible[fi].Point]
			if !ok {
				continue
			}
			for ax := range l.dims {
				for _, step := range []int{-1, 1} {
					n := append([]int(nil), base...)
					n[ax] += step
					if n[ax] < 0 || n[ax] >= l.dims[ax] {
						continue
					}
					addPending(n)
				}
			}
		}
		for i, p := range pending {
			if _, ok := idxOf[p]; !ok {
				idxOf[p] = pendingIdx[i]
			}
		}
	}
	return nil
}
