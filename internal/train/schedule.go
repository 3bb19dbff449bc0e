// Package train turns a network into the per-device iteration schedule of a
// parallel training strategy (§II-C, Figure 3): data-parallel training
// splits the batch across workers and all-reduces weight gradients (dW)
// during backprop; model-parallel training (the Krizhevsky-style strategy of
// §IV) splits each GEMM layer's outputs across workers, all-gathers feature
// maps (X) at every layer boundary during forward propagation, and
// all-reduces input gradients (dX) during backprop.
//
// A layer's bytes and GEMMs are facts of the graph, so a schedule derives
// them on demand (Schedule.Work) instead of copying them per layer; it
// stores only its scale factors, its collectives and, under model
// parallel, its GEMM shards.
package train

import (
	"fmt"
	"sync"

	"github.com/memcentric/mcdla/internal/accel"
	"github.com/memcentric/mcdla/internal/collective"
	"github.com/memcentric/mcdla/internal/dnn"
	"github.com/memcentric/mcdla/internal/units"
	"github.com/memcentric/mcdla/internal/vmem"
)

// Strategy selects the parallelization scheme.
type Strategy int

const (
	// DataParallel assigns each worker the full model and 1/workers of the
	// batch.
	DataParallel Strategy = iota
	// ModelParallel assigns each worker the full batch and 1/workers of
	// every GEMM layer's outputs.
	ModelParallel
)

func (s Strategy) String() string {
	switch s {
	case DataParallel:
		return "data-parallel"
	case ModelParallel:
		return "model-parallel"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// SyncOp is one collective a device participates in during the iteration.
// Its one-byte fields come last, so it packs into 32 bytes.
type SyncOp struct {
	Bytes units.Bytes
	// Tag labels the traffic for accounting ("dW", "X", "dX").
	Tag string
	Op  collective.Op
	// Blocking collectives stall the compute pipeline (model-parallel layer
	// boundaries); non-blocking ones overlap with remaining backprop
	// (data-parallel dW reductions).
	Blocking bool
}

// LayerWork is the per-device execution record for one layer, derived on
// demand from the graph by Schedule.Work: the schedule keeps no per-layer
// record. GEMMs is read-only and cap-limited: the graph's own list, or under
// model parallel a window of the schedule's shard table.
type LayerWork struct {
	// GEMMs are the device's shard of the layer's forward matrix work.
	GEMMs []dnn.GEMM
	// WeightBytes is the device's shard of parameters read per execution.
	WeightBytes int64
	// InputBytes / OutputBytes are the HBM-visible tensor footprints for
	// the roofline (full tensors under model parallel: inputs arrive
	// gathered, outputs are gathered before the next major layer).
	InputBytes  int64
	OutputBytes int64
}

// Schedule is a device's full iteration plan. It stores only what its graph
// cannot give it: the scale factors (precision and workers), the
// collectives and, under model parallel, the GEMM shards. Each of the two
// tables holds every layer's entries back to back, delimited by int32
// bounds; Work, FwdSync and BwdSync derive a layer's view on demand.
type Schedule struct {
	Name     string
	Strategy Strategy
	Workers  int
	// GlobalBatch is the problem-size batch (512 in the paper's runs).
	GlobalBatch int
	// Precision is the number-format policy the byte accounting was scaled
	// with.
	Precision Precision
	// Graph is the per-device graph: batch/workers under data parallel,
	// the full batch under model parallel.
	Graph *dnn.Graph

	// ops holds every layer's collectives in layer order, a layer's forward
	// ops before its backward ones: layer id's forward ops are
	// ops[opBound[2*id]:opBound[2*id+1]] and its backward ops
	// ops[opBound[2*id+1]:opBound[2*id+2]]. Both are nil when the iteration
	// has no collectives (a single data-parallel worker).
	ops     []SyncOp
	opBound []int32
	// shards holds the model-parallel GEMM shards of every layer: layer
	// id's are shards[shardBound[id]:shardBound[id+1]]. Both are nil under
	// data parallel, where every layer runs the graph's own list.
	shards     []dnn.GEMM
	shardBound []int32

	// net is the graph's shared network, which holds the vmem analyses.
	net *Network
	// groups counts the graph's weight groups.
	groups int

	// priceMu guards the forward price tables below: schedules are shared
	// by pointer across concurrent simulations (the runner memoizes them
	// per workload point). The tables hold the most recent priceTables
	// device price keys. Once all are taken, the next table replaces slot
	// priced % priceTables, the oldest.
	priceMu sync.Mutex
	prices  []priceTable
	priced  int
}

// priceTable is one device price key's per-layer forward prices.
type priceTable struct {
	key accel.Config
	fwd []units.Time
}

// priceTables bounds the price tables a schedule keeps, as Prepared's two
// oracle modes bound its analyses. The studies price a schedule on at most
// five distinct price keys (Figure 2's generations); a sixth device evicts
// the oldest table, which is rebuilt if asked for again.
const priceTables = 6

// Prepared returns the vmem memory-overlaying analysis of the schedule's
// graph for the given oracle mode: its network's, built once and shared by
// every schedule and simulation on that network.
func (s *Schedule) Prepared(oracle bool) (*vmem.Prepared, error) { return s.net.Prepared(oracle) }

// ForwardPrices returns the schedule's per-layer forward compute prices on
// every device whose accel.Config.PriceKey is key, indexed by layer ID. The
// first call for a key fills the table with price, once per layer; later
// calls share it, so callers must not modify it. Design points that differ
// only in links, channels or names share one table.
func (s *Schedule) ForwardPrices(key accel.Config, price func(l *dnn.Layer, w LayerWork) units.Time) []units.Time {
	s.priceMu.Lock()
	defer s.priceMu.Unlock()
	for _, t := range s.prices {
		if t.key == key {
			return t.fwd
		}
	}
	t := priceTable{key: key, fwd: make([]units.Time, len(s.Graph.Layers))}
	for _, l := range s.Graph.Layers {
		t.fwd[l.ID] = price(l, s.Work(l.ID))
	}
	if len(s.prices) < priceTables {
		s.prices = append(s.prices, t)
	} else {
		s.prices[s.priced%priceTables] = t
	}
	s.priced++
	return t.fwd
}

// WeightGroups reports how many weight groups the schedule's graph has: the
// number of dW reductions a data-parallel iteration over several workers
// overlaps with backprop, one per group.
func (s *Schedule) WeightGroups() int { return s.groups }

// StashBytes scales a plan tensor's bytes — counted at the graph's 2-byte
// base — to what the device actually stashes and migrates. The precision
// policy scales every stashed tensor (FP32 activations double it). Under
// model-parallel training of recurrent networks the hidden state is sharded
// across the workers: each device stashes its own slice of the gate
// activations and hidden vectors, and the full tensors a backward step needs
// are re-materialized by the per-timestep collectives already in the
// schedule. Convolutional model parallelism (Krizhevsky-style filter splits)
// stashes the gathered inputs, which backward's dW GEMM consumes locally.
func (s *Schedule) StashBytes(b int64) units.Bytes {
	scale := float64(s.Precision.ActScale())
	if s.Strategy == ModelParallel && s.Graph.Timesteps > 0 {
		scale /= float64(s.Workers)
	}
	return units.Bytes(float64(b)*scale + 0.5)
}

// BuildSeq constructs the per-device schedule for a benchmark with the full
// scenario axis: a sequence-length override (0 keeps the workload default)
// and a training precision. It builds the network at the strategy's device
// batch, then the schedule on it. Workers must divide the global batch
// under data parallel and every layer's output features under model
// parallel (true for all Table III networks at 8).
func BuildSeq(name string, globalBatch, workers int, strategy Strategy, seqlen int, prec Precision) (*Schedule, error) {
	batch, err := DeviceBatch(globalBatch, workers, strategy)
	if err != nil {
		return nil, err
	}
	net, err := NewNetwork(name, batch, seqlen)
	if err != nil {
		return nil, err
	}
	return BuildOn(net, globalBatch, workers, strategy, prec)
}

// BuildGraph constructs the per-device schedule for an already-built graph:
// under data parallel g is the per-device graph (batch = globalBatch /
// workers), under model parallel the full-batch graph. It is the entry point
// for custom (non-registry) workloads — randomized property-test graphs,
// hand-built capacity studies.
func BuildGraph(g *dnn.Graph, globalBatch, workers int, strategy Strategy, prec Precision) (*Schedule, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return BuildOn(&Network{Graph: g}, globalBatch, workers, strategy, prec)
}

// BuildOn constructs the per-device schedule on a network, which it shares
// with every other schedule built on it: under data parallel the network's
// batch is the device batch (globalBatch / workers), under model parallel
// the full batch.
func BuildOn(net *Network, globalBatch, workers int, strategy Strategy, prec Precision) (*Schedule, error) {
	if workers <= 0 {
		return nil, fmt.Errorf("train: workers must be positive, got %d", workers)
	}
	g := net.Graph
	switch strategy {
	case DataParallel:
		if g.Batch*workers != globalBatch {
			return nil, fmt.Errorf("train: device batch %d × %d workers != global batch %d", g.Batch, workers, globalBatch)
		}
		return buildDataParallel(net, globalBatch, workers, prec), nil
	case ModelParallel:
		if g.Batch != globalBatch {
			return nil, fmt.Errorf("train: model-parallel graph batch %d != global batch %d", g.Batch, globalBatch)
		}
		return buildModelParallel(net, globalBatch, workers, prec)
	default:
		return nil, fmt.Errorf("train: unknown strategy %v", strategy)
	}
}

// MustBuild is BuildSeq at the workload's default sequence length in the
// fp16 accounting, for configuration-time call sites.
func MustBuild(name string, globalBatch, workers int, strategy Strategy) *Schedule {
	s, err := BuildSeq(name, globalBatch, workers, strategy, 0, FP16)
	if err != nil {
		panic(err)
	}
	return s
}

// Work returns layer id's per-device execution record, derived from the
// graph: every byte count scaled by the precision's ActScale, and under
// model parallel a GEMM layer's shards with 1/workers of its weights.
func (s *Schedule) Work(id int) LayerWork {
	g := s.Graph
	l := g.Layers[id]
	act := s.Precision.ActScale()
	w := LayerWork{
		GEMMs:       l.GEMMs,
		WeightBytes: act * l.WeightBytes(),
		InputBytes:  act * inputBytes(g, l),
		OutputBytes: act * l.OutBytes(),
	}
	if s.Strategy == ModelParallel && len(l.GEMMs) > 0 {
		lo, hi := s.shardBound[id], s.shardBound[id+1]
		w.GEMMs = s.shards[lo:hi:hi]
		w.WeightBytes /= int64(s.Workers)
	}
	return w
}

// FwdSync returns the collectives that run after layer id's forward pass
// (the all-gather of its output). The list is read-only and cap-limited.
func (s *Schedule) FwdSync(id int) []SyncOp { return s.syncWindow(2 * id) }

// BwdSync returns the collectives that run with layer id's backward pass
// (the all-reduce of its dX or of its weight group's dW). The list is
// read-only and cap-limited.
func (s *Schedule) BwdSync(id int) []SyncOp { return s.syncWindow(2*id + 1) }

func (s *Schedule) syncWindow(i int) []SyncOp {
	if s.opBound == nil {
		return nil
	}
	lo, hi := s.opBound[i], s.opBound[i+1]
	return s.ops[lo:hi:hi]
}

func inputBytes(g *dnn.Graph, l *dnn.Layer) int64 {
	var total int64
	for _, in := range l.Inputs {
		total += g.Layer(in).OutBytes()
	}
	return total
}

// buildDataParallel: full model per device; the only synchronization is the
// all-reduce of each weight group's gradients, issued when backprop finishes
// the group's lead (earliest) layer — gradients for shared recurrent weights
// accumulate across timesteps and reduce once. Precision scales the byte
// accounting: activation/weight reads by ActScale (Work), the dW payload by
// DWScale (fp32 master-weight gradients under mixed precision). Each
// layer's forward GEMM list is the graph's own, read-only and shared.
func buildDataParallel(net *Network, globalBatch, workers int, prec Precision) *Schedule {
	g := net.Graph
	s := &Schedule{
		Name:        g.Name,
		Strategy:    DataParallel,
		Workers:     workers,
		GlobalBatch: globalBatch,
		Precision:   prec,
		Graph:       g,
		net:         net,
	}
	for _, l := range g.Layers {
		if l.GroupLead() {
			s.groups++
		}
	}
	if workers == 1 {
		return s
	}
	s.ops = make([]SyncOp, 0, s.groups)
	s.opBound = make([]int32, 2*len(g.Layers)+1)
	dw := prec.DWScale()
	for _, l := range g.Layers {
		s.opBound[2*l.ID+1] = int32(len(s.ops))
		if l.GroupLead() {
			s.ops = append(s.ops, SyncOp{
				Op:    collective.AllReduce,
				Bytes: units.Bytes(dw * l.WeightBytes()),
				Tag:   "dW",
				// Data-parallel dW reductions overlap with the rest of
				// backprop (Figure 3(a): synchronization only at gradient
				// accumulation).
				Blocking: false,
			})
		}
		s.opBound[2*l.ID+2] = int32(len(s.ops))
	}
	return s
}

// buildModelParallel: every GEMM layer's output features are sliced across
// workers; feature maps are all-gathered at layer boundaries in forward and
// input gradients all-reduced in backward (Figure 3(b)). Elementwise layers
// run replicated on the gathered tensors. Precision scales every term by
// ActScale — the X/dX collectives carry activations and activation
// gradients, which stay fp16 under the mixed policy.
func buildModelParallel(net *Network, globalBatch, workers int, prec Precision) (*Schedule, error) {
	g := net.Graph
	n := len(g.Layers)
	s := &Schedule{
		Name:        g.Name,
		Strategy:    ModelParallel,
		Workers:     workers,
		GlobalBatch: globalBatch,
		Precision:   prec,
		Graph:       g,
		net:         net,
	}
	consumed := make([]bool, n)
	nGEMMs, nOps := 0, 0
	for _, l := range g.Layers {
		for _, in := range l.Inputs {
			consumed[in] = true
		}
		if l.GroupLead() {
			s.groups++
		}
		if len(l.GEMMs) > 0 {
			nGEMMs += len(l.GEMMs)
			nOps += 2
		}
	}
	s.shards = make([]dnn.GEMM, 0, nGEMMs)
	s.shardBound = make([]int32, n+1)
	s.ops = make([]SyncOp, 0, nOps)
	s.opBound = make([]int32, 2*n+1)
	act := prec.ActScale()
	div := int64(workers)
	for _, l := range g.Layers {
		if len(l.GEMMs) > 0 {
			for _, gm := range l.GEMMs {
				if gm.N%div != 0 {
					return nil, fmt.Errorf("train: %s layer %s: output dim %d not divisible by %d workers",
						g.Name, l.Name, gm.N, workers)
				}
				s.shards = append(s.shards, dnn.GEMM{M: gm.M, N: gm.N / div, K: gm.K})
			}
			// Forward: the device produced 1/workers of Y; gather the full
			// tensor before downstream layers consume it. The final layer
			// of the graph needs no gather.
			if consumed[l.ID] {
				s.ops = append(s.ops, SyncOp{
					Op:       collective.AllGather,
					Bytes:    units.Bytes(act * l.OutBytes()),
					Tag:      "X",
					Blocking: true,
				})
			}
			s.opBound[2*l.ID+1] = int32(len(s.ops))
			// Backward: each device's weight slice contributes a partial
			// dX over the full input; sum them.
			s.ops = append(s.ops, SyncOp{
				Op:       collective.AllReduce,
				Bytes:    units.Bytes(act * inputBytes(g, l)),
				Tag:      "dX",
				Blocking: true,
			})
		} else {
			s.opBound[2*l.ID+1] = int32(len(s.ops))
		}
		s.opBound[2*l.ID+2] = int32(len(s.ops))
		s.shardBound[l.ID+1] = int32(len(s.shards))
	}
	return s, nil
}

// SyncBytes totals the collective payload bytes of the iteration, by tag.
func (s *Schedule) SyncBytes() map[string]int64 {
	out := make(map[string]int64)
	for _, op := range s.ops {
		out[op.Tag] += int64(op.Bytes)
	}
	return out
}

// Validate checks schedule invariants: the bound tables cover every layer
// and delimit windows of their tables, and the collective shape the event
// engines' device-iteration kernel relies on holds — every forward op
// blocks, and a layer's backward pass carries at most one op.
func (s *Schedule) Validate() error {
	n := len(s.Graph.Layers)
	if s.opBound != nil {
		if err := checkBounds(s.opBound, 2*n+1, len(s.ops)); err != nil {
			return fmt.Errorf("train: %s: sync ops: %w", s.Name, err)
		}
	}
	if s.Strategy == ModelParallel {
		if err := checkBounds(s.shardBound, n+1, len(s.shards)); err != nil {
			return fmt.Errorf("train: %s: GEMM shards: %w", s.Name, err)
		}
	}
	for i := range n {
		bwd := s.BwdSync(i)
		if len(bwd) > 1 {
			return fmt.Errorf("train: %s: layer %d has %d backward collectives, want at most one", s.Name, i, len(bwd))
		}
		for _, op := range s.FwdSync(i) {
			if !op.Blocking {
				return fmt.Errorf("train: %s: layer %d has a non-blocking forward collective", s.Name, i)
			}
			if op.Bytes < 0 {
				return fmt.Errorf("train: %s: layer %d has negative sync bytes", s.Name, i)
			}
		}
		if len(bwd) == 1 && bwd[0].Bytes < 0 {
			return fmt.Errorf("train: %s: layer %d has negative sync bytes", s.Name, i)
		}
	}
	return nil
}

// checkBounds checks that a bound table has want entries, rising from 0 to
// the length of its table.
func checkBounds(bound []int32, want, table int) error {
	if len(bound) != want {
		return fmt.Errorf("%d bounds, want %d", len(bound), want)
	}
	if bound[0] != 0 || int(bound[want-1]) != table {
		return fmt.Errorf("bounds run from %d to %d over a table of %d", bound[0], bound[want-1], table)
	}
	for i := 1; i < want; i++ {
		if bound[i] < bound[i-1] {
			return fmt.Errorf("bound %d falls from %d to %d", i, bound[i-1], bound[i])
		}
	}
	return nil
}
