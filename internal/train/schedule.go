// Package train turns a network into the per-device iteration schedule of a
// parallel training strategy (§II-C, Figure 3): data-parallel training
// splits the batch across workers and all-reduces weight gradients (dW)
// during backprop; model-parallel training (the Krizhevsky-style strategy of
// §IV) splits each GEMM layer's outputs across workers, all-gathers feature
// maps (X) at every layer boundary during forward propagation, and
// all-reduces input gradients (dX) during backprop.
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
type SyncOp struct {
	Op    collective.Op
	Bytes units.Bytes
	// Tag labels the traffic for accounting ("dW", "X", "dX").
	Tag string
	// Blocking collectives stall the compute pipeline (model-parallel layer
	// boundaries); non-blocking ones overlap with remaining backprop
	// (data-parallel dW reductions).
	Blocking bool
}

// LayerWork is the per-device execution record for one layer.
type LayerWork struct {
	LayerID int
	// GEMMs are the device's shard of the layer's forward matrix work.
	GEMMs []dnn.GEMM
	// WeightBytes is the device's shard of parameters read per execution.
	WeightBytes int64
	// InputBytes / OutputBytes are the HBM-visible tensor footprints for
	// the roofline (full tensors under model parallel: inputs arrive
	// gathered, outputs are gathered before the next major layer).
	InputBytes  int64
	OutputBytes int64
	// FwdSync runs after this layer's forward pass (all-gather of Y).
	FwdSync []SyncOp
	// BwdSync runs with this layer's backward pass (all-reduce of dX or
	// the layer's dW share).
	BwdSync []SyncOp
}

// Schedule is a device's full iteration plan.
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
	// Work is indexed by layer ID.
	Work []LayerWork

	// net is the graph's shared network, which holds the vmem analyses.
	net *Network

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
		t.fwd[l.ID] = price(l, s.Work[l.ID])
	}
	if len(s.prices) < priceTables {
		s.prices = append(s.prices, t)
	} else {
		s.prices[s.priced%priceTables] = t
	}
	s.priced++
	return t.fwd
}

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

// Build constructs the per-device schedule for a benchmark at its default
// sequence length in the seed's fp16 accounting. Workers must divide the
// global batch under data parallel and every layer's output features under
// model parallel (true for all Table III networks at 8).
func Build(name string, globalBatch, workers int, strategy Strategy) (*Schedule, error) {
	return BuildSeq(name, globalBatch, workers, strategy, 0, FP16)
}

// BuildSeq is Build with the full scenario axis: a sequence-length override
// (0 keeps the workload default) and a training precision. It builds the
// network at the strategy's device batch, then the schedule on it.
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

// MustBuild is Build for configuration-time call sites.
func MustBuild(name string, globalBatch, workers int, strategy Strategy) *Schedule {
	s, err := Build(name, globalBatch, workers, strategy)
	if err != nil {
		panic(err)
	}
	return s
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
// accounting: activation/weight reads by ActScale, the dW payload by DWScale
// (fp32 master-weight gradients under mixed precision). Each layer's
// forward GEMM list is the graph's own, read-only and shared.
func buildDataParallel(net *Network, globalBatch, workers int, prec Precision) *Schedule {
	g := net.Graph
	s := &Schedule{
		Name:        g.Name,
		Strategy:    DataParallel,
		Workers:     workers,
		GlobalBatch: globalBatch,
		Precision:   prec,
		Graph:       g,
		Work:        make([]LayerWork, len(g.Layers)),
		net:         net,
	}
	act, dw := prec.ActScale(), prec.DWScale()
	for _, l := range g.Layers {
		w := LayerWork{
			LayerID:     l.ID,
			GEMMs:       l.GEMMs,
			WeightBytes: act * l.WeightBytes(),
			InputBytes:  act * inputBytes(g, l),
			OutputBytes: act * l.OutBytes(),
		}
		if workers > 1 && l.GroupLead() {
			w.BwdSync = []SyncOp{{
				Op:    collective.AllReduce,
				Bytes: units.Bytes(dw * l.WeightBytes()),
				Tag:   "dW",
				// Data-parallel dW reductions overlap with the rest of
				// backprop (Figure 3(a): synchronization only at gradient
				// accumulation).
				Blocking: false,
			}}
		}
		s.Work[l.ID] = w
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
	s := &Schedule{
		Name:        g.Name,
		Strategy:    ModelParallel,
		Workers:     workers,
		GlobalBatch: globalBatch,
		Precision:   prec,
		Graph:       g,
		Work:        make([]LayerWork, len(g.Layers)),
		net:         net,
	}
	act := prec.ActScale()
	consumers := g.Consumers()
	for _, l := range g.Layers {
		w := LayerWork{
			LayerID:     l.ID,
			InputBytes:  act * inputBytes(g, l),
			OutputBytes: act * l.OutBytes(),
		}
		if len(l.GEMMs) > 0 {
			div := int64(workers)
			for _, gm := range l.GEMMs {
				if gm.N%div != 0 {
					return nil, fmt.Errorf("train: %s layer %s: output dim %d not divisible by %d workers",
						g.Name, l.Name, gm.N, workers)
				}
				w.GEMMs = append(w.GEMMs, dnn.GEMM{M: gm.M, N: gm.N / div, K: gm.K})
			}
			w.WeightBytes = act * l.WeightBytes() / div
			// Forward: the device produced 1/workers of Y; gather the full
			// tensor before downstream layers consume it. The final layer
			// of the graph needs no gather.
			if len(consumers[l.ID]) > 0 {
				w.FwdSync = append(w.FwdSync, SyncOp{
					Op:       collective.AllGather,
					Bytes:    units.Bytes(act * l.OutBytes()),
					Tag:      "X",
					Blocking: true,
				})
			}
			// Backward: each device's weight slice contributes a partial
			// dX over the full input; sum them.
			w.BwdSync = append(w.BwdSync, SyncOp{
				Op:       collective.AllReduce,
				Bytes:    units.Bytes(w.InputBytes),
				Tag:      "dX",
				Blocking: true,
			})
		} else {
			w.GEMMs = nil
			w.WeightBytes = act * l.WeightBytes()
		}
		s.Work[l.ID] = w
	}
	return s, nil
}

// DeviceBatch reports the per-device batch size.
func (s *Schedule) DeviceBatch() int { return s.Graph.Batch }

// SyncBytes totals the collective payload bytes of the iteration, by tag.
func (s *Schedule) SyncBytes() map[string]int64 {
	out := make(map[string]int64)
	for _, w := range s.Work {
		for _, op := range append(append([]SyncOp(nil), w.FwdSync...), w.BwdSync...) {
			out[op.Tag] += int64(op.Bytes)
		}
	}
	return out
}

// ComputeMACs totals the device's forward MAC count for the iteration.
func (s *Schedule) ComputeMACs() int64 {
	var total int64
	for _, w := range s.Work {
		for _, g := range w.GEMMs {
			total += g.MACs()
		}
	}
	return total
}

// Validate checks schedule invariants, among them the collective shape the
// event engines' device-iteration kernel relies on: every forward op blocks,
// and a layer's backward pass carries at most one op.
func (s *Schedule) Validate() error {
	if len(s.Work) != len(s.Graph.Layers) {
		return fmt.Errorf("train: %s: work entries %d != layers %d", s.Name, len(s.Work), len(s.Graph.Layers))
	}
	for i, w := range s.Work {
		if w.LayerID != i {
			return fmt.Errorf("train: %s: work %d has layer ID %d", s.Name, i, w.LayerID)
		}
		if len(w.BwdSync) > 1 {
			return fmt.Errorf("train: %s: layer %d has %d backward collectives, want at most one", s.Name, i, len(w.BwdSync))
		}
		for _, op := range w.FwdSync {
			if !op.Blocking {
				return fmt.Errorf("train: %s: layer %d has a non-blocking forward collective", s.Name, i)
			}
			if op.Bytes < 0 {
				return fmt.Errorf("train: %s: layer %d has negative sync bytes", s.Name, i)
			}
		}
		if len(w.BwdSync) == 1 && w.BwdSync[0].Bytes < 0 {
			return fmt.Errorf("train: %s: layer %d has negative sync bytes", s.Name, i)
		}
	}
	return nil
}
