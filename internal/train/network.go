package train

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/memcentric/mcdla/internal/compress"
	"github.com/memcentric/mcdla/internal/dnn"
	"github.com/memcentric/mcdla/internal/vmem"
)

// Network is a per-device graph together with the memory-overlaying
// analyses built on it. A plan depends on the graph and the oracle flag
// only, so every schedule built on one network — each precision, and data
// or model parallel at the same device batch — shares one analysis per
// oracle mode. A Network is safe for concurrent use.
type Network struct {
	Graph *dnn.Graph

	// prepMu guards the lazily-built vmem analyses below. Networks are
	// shared by pointer across concurrent simulations (the runner memoizes
	// them per workload point), so the cache must be concurrency-safe. The
	// mutex also makes Network non-copyable under go vet's copylocks check,
	// which is intended — every consumer holds a *Network.
	prepMu sync.Mutex
	prep   [2]*vmem.Prepared

	// ratioMu guards ratio, the lazily computed cDMA compression factor;
	// zero means not yet computed, as a computed factor is at least 1.
	ratioMu sync.Mutex
	ratio   float64
}

// planBuilds counts the vmem.Prepare calls Network.Prepared makes, so a
// test or benchmark can hold a request to one plan per distinct input.
var planBuilds atomic.Int64

// Builds reports how many graphs dnn.BuildSeq has built and how many memory
// plans Network.Prepared has built in this process.
func Builds() (graphs, plans int64) { return dnn.Builds(), planBuilds.Load() }

// DeviceBatch reports the per-device batch of a training point: the global
// batch split across the workers under data parallel, the full batch under
// model parallel.
func DeviceBatch(globalBatch, workers int, strategy Strategy) (int, error) {
	if workers <= 0 {
		return 0, fmt.Errorf("train: workers must be positive, got %d", workers)
	}
	if globalBatch <= 0 {
		return 0, fmt.Errorf("train: batch must be positive, got %d", globalBatch)
	}
	if strategy != DataParallel {
		return globalBatch, nil
	}
	if globalBatch%workers != 0 {
		return 0, fmt.Errorf("train: batch %d not divisible by %d workers", globalBatch, workers)
	}
	return globalBatch / workers, nil
}

// NewNetwork builds a registry workload's graph at the per-device batch; a
// zero seqlen keeps the workload's default sequence length.
func NewNetwork(name string, deviceBatch, seqlen int) (*Network, error) {
	g, err := dnn.BuildSeq(name, deviceBatch, seqlen)
	if err != nil {
		return nil, err
	}
	return &Network{Graph: g}, nil
}

// CompressRatio returns the cDMA compression factor of the network's graph
// (compress.GraphRatio), computed once per network: every design point that
// adds a compressing DMA engine at this workload point reads the same value.
func (n *Network) CompressRatio() float64 {
	n.ratioMu.Lock()
	defer n.ratioMu.Unlock()
	if n.ratio == 0 {
		n.ratio = compress.GraphRatio(n.Graph)
	}
	return n.ratio
}

// Prepared returns the vmem memory-overlaying analysis of the network's
// graph for the given oracle mode, built once per network and shared by
// every schedule and simulation that uses it: design points that differ
// only on bandwidth axes (links, memory nodes, DIMMs), and schedules that
// differ only in precision or strategy, reuse the same plan and prefetch
// schedule instead of re-running the DAG analysis.
func (n *Network) Prepared(oracle bool) (*vmem.Prepared, error) {
	idx := 0
	if oracle {
		idx = 1
	}
	n.prepMu.Lock()
	defer n.prepMu.Unlock()
	if n.prep[idx] == nil {
		planBuilds.Add(1)
		pr, err := vmem.Prepare(n.Graph, vmem.Options{Oracle: oracle})
		if err != nil {
			return nil, err
		}
		n.prep[idx] = pr
	}
	return n.prep[idx], nil
}
