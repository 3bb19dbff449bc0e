package runner

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/memcentric/mcdla/internal/core"
	"github.com/memcentric/mcdla/internal/dnn"
	"github.com/memcentric/mcdla/internal/train"
)

// testGrid is a small but non-trivial slice of the paper's evaluation plane:
// two workloads across the six design points, both strategies.
func testGrid() []Job {
	return Grid{
		Workloads:  []string{"AlexNet", "RNN-GRU"},
		Designs:    core.StandardDesigns(),
		Strategies: []train.Strategy{train.DataParallel, train.ModelParallel},
		Batches:    []int{256},
		Workers:    8,
	}.Jobs()
}

func TestGridJobsOrder(t *testing.T) {
	jobs := testGrid()
	if len(jobs) != 2*6*2 {
		t.Fatalf("grid size = %d, want 24", len(jobs))
	}
	// Workload-major, then design, then strategy.
	if jobs[0].Workload != "AlexNet" || jobs[0].Design.Name != "DC-DLA" || jobs[0].Strategy != train.DataParallel {
		t.Errorf("first job = %s/%s/%v", jobs[0].Workload, jobs[0].Design.Name, jobs[0].Strategy)
	}
	if jobs[1].Strategy != train.ModelParallel {
		t.Errorf("second job strategy = %v, want model-parallel", jobs[1].Strategy)
	}
	if jobs[12].Workload != "RNN-GRU" {
		t.Errorf("job 12 workload = %s, want RNN-GRU", jobs[12].Workload)
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	jobs := testGrid()
	seq, err := New(Options{Parallelism: 1}).Run(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := New(Options{Parallelism: 8}).Run(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("parallel results differ from the sequential reference")
	}
	// And against the raw core path, job by job.
	for i, j := range jobs {
		s, err := train.BuildSeq(j.Workload, j.Batch, j.Workers, j.Strategy, 0, train.FP16)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Simulate(j.Design, s)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(par[i], want) {
			t.Errorf("job %d (%s × %s): runner result differs from direct core.Simulate", i, j.Design.Name, j.Workload)
		}
	}
}

func TestCacheServesRepeatedGrids(t *testing.T) {
	e := New(Options{Parallelism: 4})
	jobs := testGrid()
	first, err := e.Run(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Misses != int64(len(jobs)) || st.Hits != 0 {
		t.Fatalf("first run stats = %+v, want %d misses", st, len(jobs))
	}
	second, err := e.Run(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	st = e.Stats()
	if st.Hits != int64(len(jobs)) || st.Misses != int64(len(jobs)) {
		t.Fatalf("second run stats = %+v, want every job served from cache", st)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cached results differ from computed ones")
	}
}

func TestInFlightDeduplication(t *testing.T) {
	// Many copies of one job submitted at once: the pool must simulate it
	// exactly once and serve every other copy from the in-flight entry.
	job := Job{
		Design: core.StandardDesigns()[4], Workload: "VGG-E",
		Strategy: train.DataParallel, Batch: 512, Workers: 8,
	}
	jobs := make([]Job, 32)
	for i := range jobs {
		jobs[i] = job
	}
	e := New(Options{Parallelism: 8})
	rs, err := e.Run(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Misses != 1 || st.Hits != int64(len(jobs)-1) {
		t.Fatalf("stats = %+v, want 1 miss and %d hits", st, len(jobs)-1)
	}
	for i := range rs {
		if !reflect.DeepEqual(rs[i], rs[0]) {
			t.Fatalf("deduplicated job %d returned a different result", i)
		}
	}
}

func TestErrorPropagation(t *testing.T) {
	good := Job{
		Design: core.StandardDesigns()[0], Workload: "AlexNet",
		Strategy: train.DataParallel, Batch: 256, Workers: 8,
	}
	bad := func(name string) Job {
		j := good
		j.Workload = name
		return j
	}
	jobs := []Job{good, bad("no-such-net-1"), bad("no-such-net-2"), good}
	var seen []error
	rs, err := New(Options{Parallelism: 1}).Run(context.Background(), jobs, func(u Update) {
		seen = append(seen, u.Err)
	})
	if err == nil {
		t.Fatal("Run swallowed the job failures")
	}
	// The first error in job order wins, whatever order the pool finished in.
	if !strings.Contains(err.Error(), "no-such-net-1") {
		t.Errorf("returned error = %v, want the first failing job's", err)
	}
	// Healthy jobs still completed.
	if rs[0].IterationTime <= 0 || rs[3].IterationTime <= 0 {
		t.Error("good jobs did not run to completion alongside the failures")
	}
	// Failures stream through progress.
	var failed int
	for _, e := range seen {
		if e != nil {
			failed++
		}
	}
	if failed != 2 {
		t.Errorf("progress reported %d failures, want 2", failed)
	}
}

func TestProgressStream(t *testing.T) {
	jobs := testGrid()
	var updates []Update
	if _, err := New(Options{Parallelism: 6}).Run(context.Background(), jobs, func(u Update) {
		updates = append(updates, u)
	}); err != nil {
		t.Fatal(err)
	}
	if len(updates) != len(jobs) {
		t.Fatalf("got %d updates, want one per job", len(updates))
	}
	for i, u := range updates {
		if u.Done != i+1 || u.Total != len(jobs) {
			t.Fatalf("update %d = %d/%d, want monotonically counted %d/%d", i, u.Done, u.Total, i+1, len(jobs))
		}
		if u.Job.Workload == "" {
			t.Fatalf("update %d carries no job", i)
		}
	}
}

func TestParallelismDefaultsToGOMAXPROCS(t *testing.T) {
	if New(Options{}).Parallelism() < 1 {
		t.Fatal("default parallelism must be at least 1")
	}
	if New(Options{Parallelism: 3}).Parallelism() != 3 {
		t.Fatal("explicit parallelism not honoured")
	}
}

func TestFanOrderAndErrors(t *testing.T) {
	for _, par := range []int{1, 0, 4} {
		got, err := Fan(context.Background(), par, 20, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("parallelism %d: index %d = %d", par, i, v)
			}
		}
	}
	// All jobs run to completion; the first error in index order surfaces.
	ran := make([]atomic.Bool, 6)
	_, err := Fan(context.Background(), 3, 6, func(i int) (int, error) {
		ran[i].Store(true)
		if i == 2 || i == 4 {
			return 0, fmt.Errorf("job %d failed", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "job 2 failed" {
		t.Fatalf("err = %v, want job 2's", err)
	}
	for i := range ran {
		if !ran[i].Load() {
			t.Fatalf("job %d never ran", i)
		}
	}
	if out, err := Fan(context.Background(), 2, 0, func(int) (int, error) { return 0, nil }); err != nil || len(out) != 0 {
		t.Fatalf("empty fan: %v %v", out, err)
	}
}

// TestLRUCacheEviction pins the bounded-cache contract behind `mcdla serve`:
// with CacheEntries set, completed entries beyond the bound are evicted
// oldest-first, a hit refreshes recency, and an evicted key re-simulates.
func TestLRUCacheEviction(t *testing.T) {
	var calls atomic.Int64
	hits := 0
	m := newMemo[string, int](2)
	get := func(key string) int {
		v, cached, err := m.do(key, func() (int, error) {
			calls.Add(1)
			return int(calls.Load()), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if cached {
			hits++
		}
		return v
	}
	get("a")
	get("b")
	get("a") // refresh a: LRU order is now b, a
	get("c") // evicts b
	if n := calls.Load(); n != 3 {
		t.Fatalf("after a,b,a,c: %d computations, want 3", n)
	}
	get("a") // still resident
	if n := calls.Load(); n != 3 {
		t.Fatalf("a was evicted despite being recent (calls=%d)", n)
	}
	get("b") // evicted above: recomputes, evicting c
	if n := calls.Load(); n != 4 {
		t.Fatalf("b served stale entry (calls=%d)", n)
	}
	if len(m.entries) != 2 || m.order.Len() != 2 {
		t.Fatalf("cache size = %d entries / %d list, want 2/2", len(m.entries), m.order.Len())
	}
	if hits != 2 {
		t.Fatalf("hits = %d, want 2", hits)
	}
}

// TestLRUSkipsInFlightEntries makes sure eviction never drops a slot whose
// computation is still running.
func TestLRUSkipsInFlightEntries(t *testing.T) {
	m := newMemo[string, int](1)
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.do("slow", func() (int, error) {
			close(started)
			<-release
			return 1, nil
		})
	}()
	<-started
	// A second key completes while "slow" is in flight; the cap of 1 must
	// evict the completed newcomer's predecessor only when complete — the
	// in-flight slot survives.
	m.do("fast", func() (int, error) { return 2, nil })
	m.mu.Lock()
	_, slowAlive := m.entries["slow"]
	m.mu.Unlock()
	if !slowAlive {
		t.Fatal("in-flight entry was evicted")
	}
	close(release)
	<-done
	// slow's completion triggers eviction down to the cap.
	m.mu.Lock()
	size := len(m.entries)
	m.mu.Unlock()
	if size != 1 {
		t.Fatalf("cache size after completion = %d, want 1", size)
	}
}

// TestEngineCacheBound exercises the bound end-to-end through Engine.Run.
func TestEngineCacheBound(t *testing.T) {
	e := New(Options{Parallelism: 2, CacheEntries: 4})
	jobs := testGrid()
	if _, err := e.Run(context.Background(), jobs, nil); err != nil {
		t.Fatal(err)
	}
	if n := len(e.results.entries); n > 4 {
		t.Fatalf("results cache holds %d entries, bound is 4", n)
	}
	// Re-running the full grid cannot be fully cached any more, but must
	// still return correct results.
	unbounded := New(Options{Parallelism: 2})
	want, err := unbounded.Run(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Run(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("bounded engine returned different results after eviction")
	}
}

// TestRunCancelled: cancelling the context mid-grid stops the scheduling of
// queued jobs — the cache sees strictly fewer simulations than the grid —
// and Run reports the context error.
func TestRunCancelled(t *testing.T) {
	e := New(Options{Parallelism: 1})
	jobs := testGrid()
	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Int64
	_, err := e.Run(ctx, jobs, func(u Update) {
		done.Add(1)
		cancel() // cancel after the first finished job
	})
	if err != context.Canceled {
		t.Fatalf("cancelled Run returned %v, want context.Canceled", err)
	}
	stats := e.Stats()
	if ran := stats.Hits + stats.Misses; ran >= int64(len(jobs)) {
		t.Fatalf("all %d jobs ran despite cancellation after %d completions", len(jobs), done.Load())
	}
}

// TestRunCancelledBeforeStart: a dead context schedules nothing.
func TestRunCancelledBeforeStart(t *testing.T) {
	e := New(Options{Parallelism: 4})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Run(ctx, testGrid(), nil); err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if stats := e.Stats(); stats.Misses != 0 && stats.Misses >= int64(len(testGrid())) {
		t.Fatalf("dead context still simulated the whole grid: %+v", stats)
	}
}

// TestFanCancelled mirrors the grid behaviour for the generic fan-out.
func TestFanCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	_, err := Fan(ctx, 1, 100, func(i int) (int, error) {
		calls.Add(1)
		cancel()
		return i, nil
	})
	if err != context.Canceled {
		t.Fatalf("cancelled Fan returned %v, want context.Canceled", err)
	}
	if n := calls.Load(); n >= 100 {
		t.Fatalf("all %d indices ran despite cancellation", n)
	}
}

// TestFanOneJobRunsInline: a one-job fan runs its job on the caller's
// goroutine at any parallelism, so a panicking job unwinds into the caller
// (on a worker goroutine it would kill the process), and a dead context
// runs nothing.
func TestFanOneJobRunsInline(t *testing.T) {
	for _, parallelism := range []int{0, 1, 4} {
		func() {
			defer func() {
				if r := recover(); r != "job 0" {
					t.Fatalf("parallelism %d: recovered %v, want job 0's panic", parallelism, r)
				}
			}()
			Fan(context.Background(), parallelism, 1, func(i int) (int, error) {
				panic(fmt.Sprintf("job %d", i))
			})
			t.Fatalf("parallelism %d: Fan returned", parallelism)
		}()
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Fan(ctx, 4, 1, func(int) (int, error) {
		t.Error("a dead context ran the job")
		return 0, nil
	}); err != context.Canceled {
		t.Fatalf("one-job Fan on a dead context returned %v", err)
	}
	got, err := Fan(context.Background(), 1, 1, func(i int) (int, error) { return 0, fmt.Errorf("job %d failed", i) })
	if len(got) != 1 || err == nil || err.Error() != "job 0 failed" {
		t.Fatalf("failing one-job Fan returned (%v, %v)", got, err)
	}
}

// TestMemoPanicReleasesWaiters: a computation that panics leaves no slot
// behind. The caller that waited on it gets an error instead of blocking
// forever, the panic reaches the computing caller, and the next call of
// the key computes it afresh.
func TestMemoPanicReleasesWaiters(t *testing.T) {
	m := newMemo[string, int](0)
	started, release := make(chan struct{}), make(chan struct{})
	recovered := make(chan any)
	go func() {
		defer func() { recovered <- recover() }()
		m.do("k", func() (int, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started
	// A second, completed key goes in front of the in-flight "k", so the
	// waiter's arrival shows as "k" moving back to the front.
	m.do("other", func() (int, error) { return 2, nil })
	type outcome struct {
		v   int
		err error
	}
	waited := make(chan outcome)
	go func() {
		v, _, err := m.do("k", func() (int, error) {
			t.Error("the waiter computed the in-flight key itself")
			return 0, nil
		})
		waited <- outcome{v, err}
	}()
	for front := ""; front != "k"; {
		runtime.Gosched()
		m.mu.Lock()
		front = m.order.Front().Value.(*entry[string, int]).key
		m.mu.Unlock()
	}
	close(release)
	if r := <-recovered; r != "boom" {
		t.Fatalf("computing caller recovered %v, want the panic", r)
	}
	select {
	case o := <-waited:
		if o.err != errAbandoned || o.v != 0 {
			t.Fatalf("waiter got (%d, %v), want errAbandoned", o.v, o.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the waiter is still blocked on the panicked computation")
	}
	v, cached, err := m.do("k", func() (int, error) { return 7, nil })
	if v != 7 || cached || err != nil {
		t.Fatalf("after the panic: (%d, %v, %v), want a fresh computation of 7", v, cached, err)
	}
	if len(m.entries) != 2 || m.order.Len() != 2 {
		t.Fatalf("memo holds %d entries / %d list elements, want 2/2", len(m.entries), m.order.Len())
	}
}

// fakeStore is an in-memory ResultStore for exercising the read-through
// path without the disk-backed implementation (which lives downstream in
// internal/store and cannot be imported here).
type fakeStore struct {
	mu    sync.Mutex
	m     map[Job]core.Result
	loads atomic.Int64
	saves atomic.Int64
}

func newFakeStore() *fakeStore { return &fakeStore{m: map[Job]core.Result{}} }

func (f *fakeStore) Load(j Job) (core.Result, bool) {
	f.loads.Add(1)
	f.mu.Lock()
	defer f.mu.Unlock()
	r, ok := f.m[j.Canonical()]
	return r, ok
}

func (f *fakeStore) Save(j Job, r core.Result) {
	f.saves.Add(1)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.m[j.Canonical()] = r
}

// TestStoreReadThrough: memo misses consult the store before simulating, and
// fresh simulations are written back — so a second engine on the same store
// never simulates.
func TestStoreReadThrough(t *testing.T) {
	jobs := testGrid()
	fs := newFakeStore()
	first := New(Options{Parallelism: 4, Store: fs})
	want, err := first.Run(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := first.Stats()
	if st.Simulated != int64(len(jobs)) || st.StoreHits != 0 {
		t.Fatalf("cold engine stats = %+v, want %d simulated", st, len(jobs))
	}
	if fs.saves.Load() != int64(len(jobs)) {
		t.Fatalf("store received %d saves, want one per simulation", fs.saves.Load())
	}

	second := New(Options{Parallelism: 4, Store: fs})
	got, err := second.Run(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	st = second.Stats()
	if st.Simulated != 0 || st.StoreHits != int64(len(jobs)) {
		t.Fatalf("warm engine stats = %+v, want all store hits", st)
	}
	if fs.saves.Load() != int64(len(jobs)) {
		t.Fatal("store-served jobs were written back redundantly")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("store-served results differ from simulated ones")
	}
}

// TestStoreSingleflight: a stampede of identical jobs through a store-backed
// engine costs at most one store read and one simulation — the store lookup
// happens inside the memo slot, not per caller.
func TestStoreSingleflight(t *testing.T) {
	job := Job{
		Design: core.StandardDesigns()[4], Workload: "VGG-E",
		Strategy: train.DataParallel, Batch: 512, Workers: 8,
	}
	jobs := make([]Job, 64)
	for i := range jobs {
		jobs[i] = job
	}
	fs := newFakeStore()
	e := New(Options{Parallelism: 8, Store: fs})
	if _, err := e.Run(context.Background(), jobs, nil); err != nil {
		t.Fatal(err)
	}
	if n := fs.loads.Load(); n != 1 {
		t.Fatalf("stampede issued %d store loads, want 1", n)
	}
	if st := e.Stats(); st.Simulated != 1 {
		t.Fatalf("stampede simulated %d times, want 1", st.Simulated)
	}
}

// TestStoreHitCountsAsCached: results served by the durable store surface as
// cache hits in the progress stream (the caller's question is "was work
// skipped", not which tier answered).
func TestStoreHitCountsAsCached(t *testing.T) {
	job := testGrid()[0]
	fs := newFakeStore()
	warm := New(Options{Parallelism: 1, Store: fs})
	if _, err := warm.Run(context.Background(), []Job{job}, nil); err != nil {
		t.Fatal(err)
	}
	var cached bool
	fresh := New(Options{Parallelism: 1, Store: fs})
	if _, err := fresh.Run(context.Background(), []Job{job}, func(u Update) { cached = u.Cached }); err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Fatal("store-served job reported Cached=false")
	}
}

// TestInFlightSurvivesBurstBeyondBound pins the CacheEntries contract the
// docs promise: when a burst of concurrent distinct computations pushes the
// resident count past the bound, none of the in-flight slots is evicted —
// every waiter observes its own computation's value, computed exactly once,
// and the table shrinks back to the cap only as entries complete.
func TestInFlightSurvivesBurstBeyondBound(t *testing.T) {
	const cap, burst = 2, 8
	m := newMemo[string, int](cap)
	var computes atomic.Int64
	started := make(chan int, burst)
	release := make(chan struct{})
	results := make([]int, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := m.do(fmt.Sprintf("k%d", i), func() (int, error) {
				computes.Add(1)
				started <- i
				<-release
				return i * 10, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}()
	}
	for i := 0; i < burst; i++ {
		<-started
	}
	// All burst entries are resident and in flight, 4x past the bound.
	m.mu.Lock()
	resident := len(m.entries)
	m.mu.Unlock()
	if resident != burst {
		t.Fatalf("%d entries resident mid-burst, want all %d in-flight slots pinned", resident, burst)
	}
	close(release)
	wg.Wait()
	for i, v := range results {
		if v != i*10 {
			t.Fatalf("waiter %d observed %d — an in-flight slot was dropped or crossed", i, v)
		}
	}
	if n := computes.Load(); n != burst {
		t.Fatalf("%d computations for %d distinct keys", n, burst)
	}
	// Completion reclaims down to the bound.
	m.mu.Lock()
	final := len(m.entries)
	m.mu.Unlock()
	if final > cap {
		t.Fatalf("cache holds %d entries after the burst completed, bound is %d", final, cap)
	}
}

// TestCanonicalClearsOnlyTag pins the cache-identity contract: Canonical
// strips the caller-only Tag label and nothing else, and two jobs that
// differ only by Tag share one memo key.
func TestCanonicalClearsOnlyTag(t *testing.T) {
	j := testGrid()[0]
	j.Tag = "fleet"
	c := j.Canonical()
	if c.Tag != "" {
		t.Fatalf("Canonical kept Tag %q", c.Tag)
	}
	j.Tag = ""
	if !reflect.DeepEqual(c, j) {
		t.Fatalf("Canonical changed more than Tag:\n%+v\n%+v", c, j)
	}
	tagged := j
	tagged.Tag = "other-label"
	if tagged.Canonical() != j.Canonical() {
		t.Fatal("Canonical forms of tag-only variants differ")
	}
	e := New(Options{Parallelism: 1})
	if _, err := e.Run(context.Background(), []Job{j, tagged}, nil); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Simulated != 1 || st.Hits != 1 {
		t.Fatalf("Tag forked the memo key: stats %+v, want one simulation and one hit", st)
	}
}

// TestConcurrentSimulationsShareOneNetwork runs, four at a time, every
// design against the schedules one network serves: the three precisions,
// data parallel at the global batch 512 and model parallel at the device
// batch 64. The engine builds that network's graph once and one plan per
// oracle mode, every schedule holds the same graph, and each result
// equals a simulation on a schedule built alone. Under -race it also
// checks that the shared plans are read without a data race.
func TestConcurrentSimulationsShareOneNetwork(t *testing.T) {
	var jobs []Job
	for _, strategy := range []train.Strategy{train.DataParallel, train.ModelParallel} {
		batch := 512
		if strategy == train.ModelParallel {
			batch = 64
		}
		jobs = append(jobs, Grid{
			Workloads:  []string{"AlexNet"},
			Designs:    core.StandardDesigns(),
			Strategies: []train.Strategy{strategy},
			Batches:    []int{batch},
			Precisions: train.Precisions(),
			Workers:    8,
		}.Jobs()...)
	}
	e := New(Options{Parallelism: 4})
	graphs0, plans0 := train.Builds()
	got, err := e.Run(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	graphs1, plans1 := train.Builds()
	if graphs, plans := graphs1-graphs0, plans1-plans0; graphs != 1 || plans != 2 {
		t.Fatalf("built %d graphs and %d plans, want 1 and 2 (normal and oracle)", graphs, plans)
	}
	var g *dnn.Graph
	for i, j := range jobs {
		s, err := e.Schedule(j)
		if err != nil {
			t.Fatal(err)
		}
		if g == nil {
			g = s.Graph
		}
		if s.Graph != g {
			t.Fatalf("job %d (%v, %v) has its own graph", i, j.Strategy, j.Precision)
		}
		alone, err := train.BuildSeq(j.Workload, j.Batch, j.Workers, j.Strategy, j.SeqLen, j.Precision)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Simulate(j.Design, alone)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("job %d (%s, %v, %v): shared-network result differs from a schedule built alone",
				i, j.Design.Name, j.Strategy, j.Precision)
		}
	}
}

// TestWeightBytesIndependentOfBatch justifies the weights memo's key: a
// model's total weight bytes depend on its workload and sequence length
// only, so the batch can stay out of the key. It checks every registry
// workload at every batch from 1 to 1024 and at each sequence length the
// workload accepts.
func TestWeightBytesIndependentOfBatch(t *testing.T) {
	for _, w := range append(dnn.BenchmarkNames(), dnn.TransformerNames()...) {
		for _, seqlen := range []int{0, 128, 512} {
			g, err := dnn.BuildSeq(w, 1, seqlen)
			if err != nil {
				continue // no sequence axis
			}
			want := g.TotalWeightBytes()
			for batch := 2; batch <= 1024; batch++ {
				g, err := dnn.BuildSeq(w, batch, seqlen)
				if err != nil {
					t.Fatal(err)
				}
				if got := g.TotalWeightBytes(); got != want {
					t.Fatalf("%s seqlen %d: %d weight bytes at batch %d, %d at batch 1", w, seqlen, got, batch, want)
				}
			}
		}
	}
}

// TestWeightBytesMemo: WeightBytes agrees with the model's graph from
// many goroutines at once, builds no graph once its (workload, seqlen) is
// memoized, whatever the batch and strategy, and does not memoize the
// failure of a job whose batch cannot be split, so a valid job at the same
// key still gets its value.
func TestWeightBytesMemo(t *testing.T) {
	e := New(Options{Parallelism: 4})
	bad := Job{Workload: "AlexNet", Strategy: train.DataParallel, Batch: 100, Workers: 8}
	if _, err := e.WeightBytes(bad); err == nil {
		t.Fatal("WeightBytes of an indivisible batch succeeded")
	}
	var jobs []Job
	for _, w := range []string{"AlexNet", "RNN-GRU", "BERT-Large"} {
		for _, batch := range []int{64, 512} {
			for _, strategy := range []train.Strategy{train.DataParallel, train.ModelParallel} {
				jobs = append(jobs, Job{Workload: w, Strategy: strategy, Batch: batch, Workers: 8})
			}
		}
	}
	want := map[string]int64{}
	for _, j := range jobs {
		g, err := dnn.Build(j.Workload, 1)
		if err != nil {
			t.Fatal(err)
		}
		want[j.Workload] = g.TotalWeightBytes()
	}
	graphs0, _ := train.Builds()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, j := range jobs {
				got, err := e.WeightBytes(j)
				if err != nil {
					t.Error(err)
					return
				}
				if got != want[j.Workload] {
					t.Errorf("%s batch %d %v: WeightBytes = %d, want %d", j.Workload, j.Batch, j.Strategy, got, want[j.Workload])
				}
			}
		}()
	}
	wg.Wait()
	// Goroutines that miss the same key together may each build their
	// schedule, so the count is bounded rather than exact here.
	graphs1, _ := train.Builds()
	if graphs := graphs1 - graphs0; graphs > int64(len(jobs)) {
		t.Fatalf("built %d graphs for %d jobs", graphs, len(jobs))
	}
	graphs0 = graphs1
	for _, j := range jobs {
		if _, err := e.WeightBytes(j); err != nil {
			t.Fatal(err)
		}
	}
	if graphs1, _ := train.Builds(); graphs1 != graphs0 {
		t.Fatalf("memoized WeightBytes built %d graphs", graphs1-graphs0)
	}
}
