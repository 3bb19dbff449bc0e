// Package runner is the parallel simulation engine behind the experiment
// generators: it accepts a declarative job grid (workload × design ×
// strategy × batch), fans the jobs out across a bounded worker pool, and
// memoizes identical (design, schedule) simulations in a concurrency-safe
// cache so that overlapping grids — Figure 12 and the headline both sweep the
// full workload × design plane, the sensitivity variants re-simulate the same
// MC-DLA(B) points five times — pay for each distinct simulation once.
//
// Results are returned indexed by job position, so a grid submitted with any
// parallelism (including 1) produces byte-identical output: every job is an
// independent pure computation, and the pool only changes when each one runs,
// never what it computes.
package runner

import (
	"container/list"
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/memcentric/mcdla/internal/core"
	"github.com/memcentric/mcdla/internal/train"
)

// Job is one point of a simulation grid: simulate Workload trained with
// Strategy at the global Batch across Workers devices on Design. SeqLen and
// Precision default to the workload's sequence length and the seed's fp16
// accounting, so zero values reproduce the paper grids exactly.
type Job struct {
	Design   core.Design
	Workload string
	Strategy train.Strategy
	Batch    int
	Workers  int
	// SeqLen overrides the workload's sequence axis (0 keeps the default).
	SeqLen int
	// Precision selects the number-format policy (zero value: train.FP16).
	Precision train.Precision
	// Tag is an optional caller label carried into progress updates
	// (e.g. the sensitivity variant a job belongs to).
	Tag string
}

// Canonical returns the job's cache identity: the job with its caller-only
// Tag label cleared. The memo key, every durable-store key and every
// cross-surface comparison go through this one function — the CLI and HTTP
// paths both feed normalized trace jobs here, so identical simulation inputs
// can never fork memo or store entries on labeling differences.
func (j Job) Canonical() Job {
	j.Tag = ""
	return j
}

// scheduleKey identifies the train.BuildSeq inputs shared by every design
// simulated against the same workload point.
type scheduleKey struct {
	workload  string
	strategy  train.Strategy
	batch     int
	workers   int
	seqLen    int
	precision train.Precision
}

// networkKey identifies a per-device network: every schedule at the same
// workload, device batch and sequence length shares its graph and plans.
type networkKey struct {
	workload    string
	deviceBatch int
	seqLen      int
}

// weightsKey identifies a model's parameter footprint, which depends on
// the workload and its sequence length only, never on the batch.
type weightsKey struct {
	workload string
	seqLen   int
}

// Update is one progress event, emitted after a job finishes (successfully,
// from cache, or with an error). Callbacks are invoked serially.
type Update struct {
	// Done counts finished jobs so far; Total is the submitted grid size.
	Done, Total int
	// Job is the finished job.
	Job Job
	// Err is the job's failure, if any.
	Err error
	// Cached reports whether the result was served by the memo cache.
	Cached bool
}

// ResultStore is a pluggable durable cache backend behind the in-memory
// memo: the engine reads through it before simulating and writes completed
// results back. Both calls are best-effort by contract — Load failures are
// misses and Save failures just cost a future re-simulation — so an
// implementation backed by disk or network must swallow its own errors.
// Implementations must be safe for concurrent use; the singleflight memo
// guarantees at most one Load/Save per key is in flight per engine, but
// multiple engines (processes) may touch the same backing store at once.
type ResultStore interface {
	Load(Job) (core.Result, bool)
	Save(Job, core.Result)
}

// Options configures an Engine.
type Options struct {
	// Parallelism bounds the worker goroutines; values ≤ 0 mean
	// runtime.GOMAXPROCS(0).
	Parallelism int
	// CacheEntries bounds the memo cache: once more than CacheEntries
	// distinct simulations are resident, the least-recently-used completed
	// entries are evicted. In-flight simulations are never evicted, even
	// when a burst of concurrent distinct jobs pushes the resident count
	// past the bound — eviction only reclaims completed entries, so the
	// cache can transiently exceed CacheEntries by the number of in-flight
	// simulations (at most the worker bound). Values ≤ 0 keep the cache
	// unbounded (the CLI default — one process, one bounded grid).
	// Long-running callers such as `mcdla serve` set a bound so the
	// cross-request cache behaves as an LRU rather than a leak.
	CacheEntries int
	// Store, when non-nil, is a durable second cache level: memo misses
	// read through it before simulating, and freshly simulated results are
	// written back. `mcdla serve -store` plugs the disk-backed
	// internal/store here so memoized results survive restarts and are
	// shared across worker processes.
	Store ResultStore
}

// CacheStats reports the memo cache's hit accounting.
type CacheStats struct {
	// Hits counts jobs served from the in-memory cache (including jobs that
	// waited on an identical in-flight simulation); Misses counts jobs that
	// fell through it (and either hit the durable store or simulated).
	Hits, Misses int64
	// StoreHits counts memo misses answered by the durable store instead
	// of a simulation; Simulated counts simulations actually executed.
	// Without a store, Simulated equals Misses.
	StoreHits, Simulated int64
}

// Engine is a reusable simulation pool. The zero value is not usable; build
// one with New. An Engine is safe for concurrent use, and its cache persists
// across Run calls so that successive grids share work.
type Engine struct {
	parallelism int
	store       ResultStore

	// The four CacheStats counters.
	hits, misses, storeHits, simulated atomic.Int64

	results memo[Job, core.Result]
	scheds  memo[scheduleKey, *train.Schedule]
	nets    memo[networkKey, *train.Network]
	weights memo[weightsKey, int64]
}

// New builds an Engine.
func New(opts Options) *Engine {
	p := opts.Parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		parallelism: p,
		store:       opts.Store,
		results:     newMemo[Job, core.Result](opts.CacheEntries),
		scheds:      newMemo[scheduleKey, *train.Schedule](opts.CacheEntries),
		nets:        newMemo[networkKey, *train.Network](opts.CacheEntries),
		weights:     newMemo[weightsKey, int64](opts.CacheEntries),
	}
}

// Parallelism reports the engine's worker bound.
func (e *Engine) Parallelism() int { return e.parallelism }

// Stats reports the simulation cache's hit accounting.
func (e *Engine) Stats() CacheStats {
	return CacheStats{
		Hits:      e.hits.Load(),
		Misses:    e.misses.Load(),
		StoreHits: e.storeHits.Load(),
		Simulated: e.simulated.Load(),
	}
}

// Run executes the grid and returns one result per job, in job order. All
// jobs run to completion even when some fail; the first error in job order is
// returned alongside the full result slice, and per-job failures are visible
// through the progress stream. progress may be nil.
//
// Cancelling ctx stops the scheduling of queued jobs: simulations already
// dispatched to a worker run to completion (they are pure CPU work), the
// rest are never started, and Run returns ctx.Err() with the partial result
// slice — the abort path behind Ctrl-C on a long `mcdla optimize` search and
// client disconnects on the HTTP service.
func (e *Engine) Run(ctx context.Context, jobs []Job, progress func(Update)) ([]core.Result, error) {
	// The finished-job count is taken under the same mutex that serializes
	// the callback, so the stream is strictly monotonic: Done=Total is
	// always the last update a caller sees.
	var progressMu sync.Mutex
	var done int
	return Fan(ctx, e.parallelism, len(jobs), func(i int) (core.Result, error) {
		r, cached, err := e.simulate(jobs[i])
		if progress != nil {
			progressMu.Lock()
			done++
			progress(Update{Done: done, Total: len(jobs), Job: jobs[i], Err: err, Cached: cached})
			progressMu.Unlock()
		}
		return r, err
	})
}

// simulate runs one job through the cache hierarchy: the in-memory memo
// (which also singleflights concurrent identical jobs), then the durable
// store if one is plugged in, then the simulator — whose result is written
// back to the store so other engines (and future processes) skip the work.
// The singleflight means a stampede of N identical jobs costs at most one
// store read and one simulation, and the store is consulted inside the memo
// slot, so concurrent callers never race duplicate disk reads either.
func (e *Engine) simulate(j Job) (core.Result, bool, error) {
	fromStore := false
	r, cached, err := e.results.do(j.Canonical(), func() (core.Result, error) {
		if e.store != nil {
			if r, ok := e.store.Load(j); ok {
				e.storeHits.Add(1)
				fromStore = true
				return r, nil
			}
		}
		s, err := e.Schedule(j)
		if err != nil {
			return core.Result{}, err
		}
		e.simulated.Add(1)
		r, err := core.Simulate(j.Design, s)
		if err == nil && e.store != nil {
			e.store.Save(j, r)
		}
		return r, err
	})
	if cached {
		e.hits.Add(1)
	} else {
		e.misses.Add(1)
	}
	// A store hit is a cache hit from the caller's point of view (the
	// progress stream's Cached flag), even though this goroutine was the
	// one that created the memo slot.
	return r, cached || fromStore, err
}

// Schedule returns the memoized training schedule for j's workload point
// (design-independent), building it on first use on the memoized network
// of its device batch. Callers that need schedule-level data alongside a
// simulation — the run report's resident weight footprint, the fleet's job
// footprints — share the graph build instead of repeating it.
func (e *Engine) Schedule(j Job) (*train.Schedule, error) {
	k := scheduleKey{j.Workload, j.Strategy, j.Batch, j.Workers, j.SeqLen, j.Precision}
	s, _, err := e.scheds.do(k, func() (*train.Schedule, error) {
		batch, err := train.DeviceBatch(j.Batch, j.Workers, j.Strategy)
		if err != nil {
			return nil, err
		}
		net, err := e.Network(j.Workload, batch, j.SeqLen)
		if err != nil {
			return nil, err
		}
		return train.BuildOn(net, j.Batch, j.Workers, j.Strategy, j.Precision)
	})
	return s, err
}

// WeightBytes returns the total weight bytes of j's model at j's sequence
// length, memoized per (workload, seqlen): a request answered by the store
// reads its resident-weights line without building a graph. A miss reads
// the graph of j's memoized schedule, so a request that simulates j builds
// no extra graph either. A job whose schedule fails to build is an error,
// and the failure is not memoized: the key leaves out the batch, which can
// make one job at a workload invalid and the next valid.
func (e *Engine) WeightBytes(j Job) (int64, error) {
	k := weightsKey{j.Workload, j.SeqLen}
	if w, ok := e.weights.get(k); ok {
		return w, nil
	}
	s, err := e.Schedule(j)
	if err != nil {
		return 0, err
	}
	w, _, err := e.weights.do(k, func() (int64, error) { return s.Graph.TotalWeightBytes(), nil })
	return w, err
}

// Network returns the memoized network of a workload at a per-device batch
// (seqlen 0 keeps the workload default), building it on first use. Every
// schedule the engine builds at that point shares it, and with it the
// network's memory plans.
func (e *Engine) Network(workload string, deviceBatch, seqlen int) (*train.Network, error) {
	n, _, err := e.nets.do(networkKey{workload, deviceBatch, seqlen}, func() (*train.Network, error) {
		return train.NewNetwork(workload, deviceBatch, seqlen)
	})
	return n, err
}

// Grid declares a full cross product of simulation inputs. It is the
// convenience constructor for the common rectangular sweeps; generators whose
// designs vary per point (per-generation devices, per-workload cDMA
// bandwidth) build []Job directly.
type Grid struct {
	Workloads  []string
	Designs    []core.Design
	Strategies []train.Strategy
	Batches    []int
	// SeqLens and Precisions are optional axes; nil means the single
	// default point ({0} and {train.FP16}).
	SeqLens    []int
	Precisions []train.Precision
	Workers    int
	Tag        string
}

// Jobs expands the grid in deterministic workload-major order:
// workload × seqlen × precision × design × strategy × batch.
func (g Grid) Jobs() []Job {
	seqs := g.SeqLens
	if len(seqs) == 0 {
		seqs = []int{0}
	}
	precs := g.Precisions
	if len(precs) == 0 {
		precs = []train.Precision{train.FP16}
	}
	jobs := make([]Job, 0, len(g.Workloads)*len(seqs)*len(precs)*len(g.Designs)*len(g.Strategies)*len(g.Batches))
	for _, w := range g.Workloads {
		for _, q := range seqs {
			for _, p := range precs {
				for _, d := range g.Designs {
					for _, s := range g.Strategies {
						for _, b := range g.Batches {
							jobs = append(jobs, Job{
								Design: d, Workload: w, Strategy: s, Batch: b,
								Workers: g.Workers, SeqLen: q, Precision: p, Tag: g.Tag,
							})
						}
					}
				}
			}
		}
	}
	return jobs
}

// Fan runs n independent indexed jobs across at most parallelism workers
// (≤ 0 means GOMAXPROCS) and returns their results in index order. It is the
// one worker pool: Engine.Run is a Fan over its jobs, and grids whose jobs
// are not core simulations — e.g. the scale-out plane study, where each
// index is a plane size driven through the event engine — call it directly.
// All jobs run to completion even when some fail; the first error in index
// order is returned alongside the full slice. Cancelling ctx stops the
// scheduling of queued indices (in-flight calls finish) and Fan returns
// ctx.Err(). A one-job fan, such as every run request, runs its job on the
// caller's goroutine if ctx is live. Longer fans keep the pool even at one
// worker: with many-job grids run inline at one worker, perfbench
// studies-cold peak RSS rose about 10% on a 2-core machine, and a GC trace
// showed mark phases stretching while the heap overshot its goal (the
// cause is not confirmed).
func Fan[T any](ctx context.Context, parallelism, n int, fn func(int) (T, error)) ([]T, error) {
	results := make([]T, n)
	errs := make([]error, n)
	if n == 1 {
		if ctx.Err() == nil {
			results[0], errs[0] = fn(0)
		}
	} else {
		workers := parallelism
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		if workers > n {
			workers = n
		}
		feed := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range feed {
					results[i], errs[i] = fn(i)
				}
			}()
		}
	feeding:
		for i := 0; i < n; i++ {
			select {
			case feed <- i:
			case <-ctx.Done():
				break feeding
			}
		}
		close(feed)
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		return results, err
	}
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// ---------------------------------------------------------------- memo cache

// entry is one cache slot. The goroutine that creates the slot computes the
// value and closes done; later arrivals for the same key block on done
// instead of recomputing.
type entry[K comparable, V any] struct {
	done chan struct{}
	val  V
	err  error
	// key and elem tie the slot to its recency-list position so eviction
	// can unlink both sides; complete guards in-flight slots from eviction.
	key      K
	elem     *list.Element
	complete bool
}

// memo is a concurrency-safe, in-flight-deduplicating memoization table.
// With a positive cap it is an LRU: every hit refreshes the entry's recency
// and completed entries beyond the cap are evicted oldest-first; in-flight
// computations are never evicted.
type memo[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*entry[K, V]
	order   *list.List // most-recent first; element values are *entry[K, V]
	cap     int        // ≤ 0: unbounded
}

func newMemo[K comparable, V any](cap int) memo[K, V] {
	return memo[K, V]{entries: map[K]*entry[K, V]{}, order: list.New(), cap: cap}
}

// errAbandoned is what callers waiting on an in-flight computation receive
// when that computation panics instead of returning.
var errAbandoned = errors.New("runner: the memoized computation this call waited on panicked")

// do returns the memoized value for key, computing it with f exactly once
// across all concurrent callers. The bool reports whether the value came from
// the cache (either already complete or computed by another in-flight call).
// If f panics, the slot is dropped so a later call computes the key afresh,
// the callers waiting on it get errAbandoned, and the panic goes on up the
// computing caller's stack.
func (c *memo[K, V]) do(key K, f func() (V, error)) (V, bool, error) {
	c.mu.Lock()
	if en, ok := c.entries[key]; ok {
		c.order.MoveToFront(en.elem)
		c.mu.Unlock()
		<-en.done
		return en.val, true, en.err
	}
	en := &entry[K, V]{done: make(chan struct{}), key: key}
	c.entries[key] = en
	en.elem = c.order.PushFront(en)
	c.mu.Unlock()

	returned := false
	defer func() {
		if returned {
			return
		}
		c.mu.Lock()
		c.order.Remove(en.elem)
		delete(c.entries, key)
		c.mu.Unlock()
		en.err = errAbandoned
		close(en.done)
	}()
	en.val, en.err = f()
	returned = true
	c.mu.Lock()
	en.complete = true
	c.evictLocked()
	c.mu.Unlock()
	close(en.done)
	return en.val, false, en.err
}

// get returns key's value if a computation of it has completed without
// error, refreshing its recency; it neither waits for nor starts one.
func (c *memo[K, V]) get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	en, ok := c.entries[key]
	if !ok || !en.complete || en.err != nil {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(en.elem)
	return en.val, true
}

// evictLocked drops least-recently-used completed entries until the table
// fits the cap. Incomplete (in-flight) entries are skipped: their creators
// still need the slot, and waiters hold the entry pointer regardless.
func (c *memo[K, V]) evictLocked() {
	if c.cap <= 0 {
		return
	}
	for e := c.order.Back(); e != nil && len(c.entries) > c.cap; {
		prev := e.Prev()
		en := e.Value.(*entry[K, V])
		if en.complete {
			c.order.Remove(e)
			delete(c.entries, en.key)
		}
		e = prev
	}
}
