// Package dse is the design-space search engine of the optimizer: it spans
// candidate system configurations over the runner's job axes — design point,
// memory-node population, link technology, batch, sequence length, training
// precision, cDMA compression, and parallelization strategy — prices each
// candidate through the cost and power models, simulates the feasible ones
// on the runner's parallel fan-out and memo cache, and extracts the Pareto
// frontier over {throughput, cost, energy, capacity}.
//
// The paper walks these axes by hand (Figures 9–14, the §V-B sensitivity
// variants, the §III-B link sweep); the package turns them into a searchable
// space with constraints (max cost, max power, min throughput) and two
// drivers: an exhaustive grid and a greedy Pareto local search that climbs
// the frontier while pruning dominated regions (Search).
//
// Every candidate is a Point whose Recipe() is a complete `mcdla run`
// invocation, so any frontier row is reproducible from the CLI.
package dse

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/memcentric/mcdla/internal/accel"
	"github.com/memcentric/mcdla/internal/core"
	"github.com/memcentric/mcdla/internal/memnode"
	"github.com/memcentric/mcdla/internal/runner"
	"github.com/memcentric/mcdla/internal/train"
	"github.com/memcentric/mcdla/internal/units"
)

// DefaultWorkers is the paper's 8-device node, the candidate default.
const DefaultWorkers = 8

// Point is one candidate configuration of the design space. The zero value
// of every optional axis keeps the Table II default, so a Point made only of
// (Design, Workload, Strategy, Batch) reproduces the paper's design points
// exactly. Point is a comparable value type: the search archives use it as a
// map key directly.
type Point struct {
	// Design names the base design point (DC-DLA, HC-DLA, MC-DLA(S/L/B),
	// DC-DLA(O), DC-DLA(gen4)).
	Design string
	// Workload is a Table III or transformer benchmark.
	Workload string
	// Strategy is the parallelization strategy (dp or mp).
	Strategy train.Strategy
	// Batch is the global batch size.
	Batch int
	// SeqLen overrides the workload's sequence axis (0: default).
	SeqLen int
	// Precision is the training number-format policy.
	Precision train.Precision
	// Links / LinkGBps override the device's link complex (0: Table II
	// N=6 × B=25 GB/s); the design constructors re-derive rings and
	// virtualization bandwidth from them.
	Links    int
	LinkGBps float64
	// MemNodes populates the memory-node ring with fewer boards than
	// devices (0: one per device). A partial population shrinks the pool
	// and the striped remote bandwidth proportionally.
	MemNodes int
	// DIMM picks the boards' DDR4 module from the memnode catalog ("":
	// the Table II 128 GB LRDIMM).
	DIMM string
	// Compress adds a cDMA compressing DMA engine on the virtualization
	// path of the host-interface designs (the §V-B model: effective PCIe
	// bandwidth multiplied by the workload's compression factor).
	Compress bool
	// Workers is the device count (0: DefaultWorkers).
	Workers int
}

func (p Point) workers() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return DefaultWorkers
}

// DesignPoint derives the candidate's fully parameterized core design: the
// base constructor rebuilt over the overridden link complex, the memory-node
// boards re-populated with the chosen DIMM and count, and the cDMA
// compressor widening the virtualization path. It is DesignOn with no
// network source.
func (p Point) DesignPoint() (core.Design, error) { return p.DesignOn(nil) }

// DesignOn is DesignPoint reading the cDMA compression ratio of a
// compressed candidate from the per-device network networks supplies,
// typically a memo such as runner.Engine.Network; nil builds it afresh.
func (p Point) DesignOn(networks func(workload string, deviceBatch, seqlen int) (*train.Network, error)) (core.Design, error) {
	dev := accel.Default()
	if p.Links > 0 {
		dev.Links = p.Links
	}
	if p.LinkGBps > 0 {
		dev.LinkBW = units.GBps(p.LinkGBps)
	}
	d, err := core.DesignFor(p.Design, dev, p.workers())
	if err != nil {
		return core.Design{}, err
	}
	if p.DIMM != "" {
		if d.MemNodes == 0 {
			return core.Design{}, &core.ParamError{Param: "dimm", Value: p.DIMM,
				Reason: "memory-node DIMMs apply to memory-centric designs, not " + d.Name}
		}
		dm, err := memnode.DIMMByName(p.DIMM)
		if err != nil {
			return core.Design{}, err
		}
		d.MemNode.DIMM = dm
	}
	if p.MemNodes > 0 {
		if d.MemNodes == 0 {
			return core.Design{}, &core.ParamError{Param: "memnodes", Value: strconv.Itoa(p.MemNodes),
				Reason: "memory-node boards apply to memory-centric designs, not " + d.Name}
		}
		if p.MemNodes > d.MemNodes {
			return core.Design{}, &core.ParamError{Param: "memnodes", Value: strconv.Itoa(p.MemNodes),
				Reason: fmt.Sprintf("the ring interleaves at most one memory-node per device (%d)", d.MemNodes)}
		}
		// A partially populated ring strips remote pages across fewer
		// boards: the reachable bandwidth shrinks with the population.
		d.VirtBW = units.Bandwidth(float64(d.VirtBW) * float64(p.MemNodes) / float64(d.MemNodes))
		d.MemNodes = p.MemNodes
	}
	if p.Compress {
		if d.SharedLinks || d.Oracle {
			return core.Design{}, &core.ParamError{Param: "compress", Value: "true",
				Reason: "cDMA compression models the host virtualization path, not " + d.Name}
		}
		ratio, err := p.compressRatio(networks)
		if err != nil {
			return core.Design{}, err
		}
		d.VirtBW = units.Bandwidth(float64(d.VirtBW) * ratio)
		d.Compressed = true
	}
	return d, nil
}

// compressRatio reads the workload's cDMA compression factor off its
// per-device network (dense attention tensors keep it at 1.0×).
func (p Point) compressRatio(networks func(string, int, int) (*train.Network, error)) (float64, error) {
	batch := p.Batch / p.workers()
	if batch < 1 {
		batch = 1
	}
	if networks == nil {
		networks = train.NewNetwork
	}
	n, err := networks(p.Workload, batch, p.SeqLen)
	if err != nil {
		return 0, err
	}
	return n.CompressRatio(), nil
}

// Job lowers the candidate, built as its DesignPoint d, onto the runner's
// grid axes.
func (p Point) Job(d core.Design) runner.Job {
	return runner.Job{
		Design: d, Workload: p.Workload, Strategy: p.Strategy,
		Batch: p.Batch, Workers: p.workers(), SeqLen: p.SeqLen,
		Precision: p.Precision, Tag: "dse",
	}
}

// Recipe prints the complete `mcdla run` invocation reproducing the point;
// default axes are omitted so the recipe reads like a hand-written command.
func (p Point) Recipe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mcdla run -design '%s' -workload %s -batch %d", p.Design, p.Workload, p.Batch)
	if p.Strategy != train.DataParallel {
		fmt.Fprintf(&b, " -strategy %v", p.Strategy)
	}
	if p.SeqLen > 0 {
		fmt.Fprintf(&b, " -seqlen %d", p.SeqLen)
	}
	if p.Precision != train.FP16 {
		fmt.Fprintf(&b, " -precision %v", p.Precision)
	}
	if p.Links > 0 {
		fmt.Fprintf(&b, " -links %d", p.Links)
	}
	if p.LinkGBps > 0 {
		fmt.Fprintf(&b, " -gbps %g", p.LinkGBps)
	}
	if p.MemNodes > 0 {
		fmt.Fprintf(&b, " -memnodes %d", p.MemNodes)
	}
	if p.DIMM != "" {
		fmt.Fprintf(&b, " -dimm %s", p.DIMM)
	}
	if p.Compress {
		b.WriteString(" -compress")
	}
	if p.Workers > 0 && p.Workers != DefaultWorkers {
		fmt.Fprintf(&b, " -workers %d", p.Workers)
	}
	return b.String()
}

// Space declares the candidate axes as a cross product. Nil optional axes
// collapse to the single default point, mirroring runner.Grid.
type Space struct {
	Workloads  []string
	Designs    []string
	Strategies []train.Strategy
	Batches    []int
	SeqLens    []int
	Precisions []train.Precision
	LinkCounts []int
	LinkGBps   []float64
	MemNodes   []int
	DIMMs      []string
	Compress   []bool
	Workers    int
}

// normalized fills the optional axes with their single default values so
// the lattice iteration never special-cases a nil axis.
func (s Space) normalized() Space {
	if len(s.SeqLens) == 0 {
		s.SeqLens = []int{0}
	}
	if len(s.Precisions) == 0 {
		s.Precisions = []train.Precision{train.FP16}
	}
	if len(s.LinkCounts) == 0 {
		s.LinkCounts = []int{0}
	}
	if len(s.LinkGBps) == 0 {
		s.LinkGBps = []float64{0}
	}
	if len(s.MemNodes) == 0 {
		s.MemNodes = []int{0}
	}
	if len(s.DIMMs) == 0 {
		s.DIMMs = []string{""}
	}
	if len(s.Compress) == 0 {
		s.Compress = []bool{false}
	}
	return s
}

// Validate reports an unusable space (a required axis left empty or an
// unknown design name).
func (s Space) Validate() error {
	switch {
	case len(s.Workloads) == 0:
		return fmt.Errorf("dse: the space needs at least one workload")
	case len(s.Designs) == 0:
		return fmt.Errorf("dse: the space needs at least one design")
	case len(s.Strategies) == 0:
		return fmt.Errorf("dse: the space needs at least one strategy")
	case len(s.Batches) == 0:
		return fmt.Errorf("dse: the space needs at least one batch size")
	}
	for _, name := range s.Designs {
		if _, err := core.DesignFor(name, accel.Default(), DefaultWorkers); err != nil {
			return err
		}
	}
	return nil
}

// lattice iterates the normalized space as index vectors, the neighbor
// structure the greedy search climbs. Axis order is the deterministic
// candidate order of the grid.
type lattice struct {
	s    Space
	dims []int
	// fams caches each design axis value's family traits so point() can
	// normalize without re-deriving core.DesignFor per index vector — the
	// derivation used to dominate lattice materialization even when only the
	// workload axis changed between candidates.
	fams []famInfo
}

// famInfo is the per-design-name family trait point normalizes by: the
// memory-node population and DIMM choice are meaningless for the
// host-interface designs, and cDMA compression for the shared-link designs
// and the oracle, so a cross product over the full axes does not mint
// duplicate simulations.
type famInfo struct {
	known       bool
	sharedLinks bool
	oracle      bool
}

// axPrecision is the precision axis position in the lattice dims — the one
// ordered axis where a later value never beats an earlier one on any
// objective, which the greedy seeding exploits.
const axPrecision = 5

func newLattice(s Space) lattice {
	n := s.normalized()
	workers := n.Workers
	if workers <= 0 {
		workers = DefaultWorkers
	}
	fams := make([]famInfo, len(n.Designs))
	for i, name := range n.Designs {
		d, err := core.DesignFor(name, accel.Default(), workers)
		if err != nil {
			continue // unknown designs pass through unnormalized, as before
		}
		fams[i] = famInfo{known: true, sharedLinks: d.SharedLinks, oracle: d.Oracle}
	}
	return lattice{s: n, fams: fams, dims: []int{
		len(n.Workloads), len(n.Designs), len(n.Strategies), len(n.Batches),
		len(n.SeqLens), len(n.Precisions), len(n.LinkCounts), len(n.LinkGBps),
		len(n.MemNodes), len(n.DIMMs), len(n.Compress),
	}}
}

func (l lattice) size() int {
	n := 1
	for _, d := range l.dims {
		n *= d
	}
	return n
}

// point materializes an index vector as a normalized candidate, using the
// precomputed family traits.
func (l lattice) point(idx []int) Point {
	p := Point{
		Workload:  l.s.Workloads[idx[0]],
		Design:    l.s.Designs[idx[1]],
		Strategy:  l.s.Strategies[idx[2]],
		Batch:     l.s.Batches[idx[3]],
		SeqLen:    l.s.SeqLens[idx[4]],
		Precision: l.s.Precisions[idx[5]],
		Links:     l.s.LinkCounts[idx[6]],
		LinkGBps:  l.s.LinkGBps[idx[7]],
		MemNodes:  l.s.MemNodes[idx[8]],
		DIMM:      l.s.DIMMs[idx[9]],
		Compress:  l.s.Compress[idx[10]],
		Workers:   l.s.Workers,
	}
	f := l.fams[idx[1]]
	if !f.known {
		return p // unknown design: surfaces later as a DesignPoint error
	}
	if f.sharedLinks {
		p.Compress = false
	} else {
		p.MemNodes, p.DIMM = 0, ""
	}
	if f.oracle {
		p.Compress = false
	}
	return p
}

// corners returns the greedy/surrogate seed index vectors: the all-lo and
// all-hi corners of every workload × design × strategy combination, with the
// precision axis pinned at its narrowest value in both corners (a wider
// format costs the same and runs strictly slower, so searches only widen it
// if the frontier pulls that way).
func (l lattice) corners() [][]int {
	var out [][]int
	for w := 0; w < l.dims[0]; w++ {
		for d := 0; d < l.dims[1]; d++ {
			for s := 0; s < l.dims[2]; s++ {
				lo := make([]int, len(l.dims))
				hi := make([]int, len(l.dims))
				lo[0], lo[1], lo[2] = w, d, s
				hi[0], hi[1], hi[2] = w, d, s
				for ax := 3; ax < len(l.dims); ax++ {
					if ax == axPrecision {
						continue
					}
					hi[ax] = l.dims[ax] - 1
				}
				out = append(out, lo, hi)
			}
		}
	}
	return out
}

// each visits every index vector in row-major (candidate) order.
func (l lattice) each(visit func(idx []int)) {
	idx := make([]int, len(l.dims))
	for {
		visit(idx)
		i := len(idx) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < l.dims[i] {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return
		}
	}
}

// Points expands the space into its distinct normalized candidates in
// deterministic order (axes that do not apply to a design family collapse,
// so the count can be well below the raw cross product).
func (s Space) Points() ([]Point, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	l := newLattice(s)
	seen := make(map[Point]bool, l.size())
	var pts []Point
	l.each(func(idx []int) {
		p := l.point(idx)
		if !seen[p] {
			seen[p] = true
			pts = append(pts, p)
		}
	})
	return pts, nil
}

// Size reports the distinct candidate count (the grid search's simulation
// budget before constraint pruning).
func (s Space) Size() (int, error) {
	pts, err := s.Points()
	return len(pts), err
}
