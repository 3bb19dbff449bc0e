package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/memcentric/mcdla/internal/experiments"
	"github.com/memcentric/mcdla/internal/runner"
	"github.com/memcentric/mcdla/internal/server"
	"github.com/memcentric/mcdla/internal/store"
)

// counts is one op's change in the engine's cache accounting.
type counts = runner.CacheStats

var (
	simulatedOnce = counts{Misses: 1, Simulated: 1}
	memoHit       = counts{Hits: 1}
	storeHit      = counts{Misses: 1, StoreHits: 1}
)

// workload is one closed-loop traffic mix: an op list and the server state
// it runs against.
type workload struct {
	name string
	ops  []op
	// store runs the server over a temporary store.Store; cache is its memo
	// bound (server.Options.CacheEntries).
	store bool
	cache int
	// passTime is the op time of one pass on the host of the steadiness
	// record (README.md). It fixes the number of timed passes a round makes
	// for a given --seconds, so two builds take their fastest-of over the
	// same number of samples however fast each runs.
	passTime time.Duration
	// freshPerOp resets the engine (memo and all) before every op, outside
	// the op's timing (studies-cold).
	freshPerOp bool
	// fill requests every op once during setup, cold, and keeps those bodies
	// as the reference the timed ops must reproduce byte for byte.
	fill bool
	// want is the exact counter change of every timed op; nil means the
	// change recorded for that op during setup.
	want *counts
}

func workloads(seed uint64) map[string]*workload {
	return map[string]*workload{
		"run-memo": {name: "run-memo", ops: runOps(seed, streamMemo, 4, runFormats),
			cache: server.DefaultCacheEntries, fill: true, want: &memoHit, passTime: 17 * time.Millisecond},
		"run-store": {name: "run-store", ops: runOps(seed, streamStore, 3, runFormats[:1]),
			store: true, cache: storeMemoBound, fill: true, want: &storeHit, passTime: 40 * time.Millisecond},
		"studies-cold": {name: "studies-cold", ops: studyOps(seed),
			cache: server.DefaultCacheEntries, freshPerOp: true, passTime: 850 * time.Millisecond},
	}
}

// storeMemoBound is run-store's memo bound: a third of its 126-point working
// set, so a fixed cycle over the set misses the memo (and the schedule memo
// behind it) on every request and is answered by the store.
const storeMemoBound = 42

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"run-memo", "run-store", "studies-cold"}

// bench is one workload's live state: the in-process server behind a
// loopback listener, one keep-alive client, and the reference responses.
type bench struct {
	w    *workload
	root string // scratch directory for stores

	front  frontHandler
	hs     *http.Server
	served chan error
	client *http.Client
	reqs   []*http.Request
	base   string

	srv *server.Server
	tr  *tracer // nil: untraced

	ref       [][]byte
	refCounts []counts
	refBad    []error // a setup check failed: every timed run of the op fails
	body      bytes.Buffer
}

// frontHandler lets the listener and the client's connection outlive the
// servers they front: every round's set-up swaps in a fresh server.
type frontHandler struct{ h atomic.Pointer[http.Handler] }

func (f *frontHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*f.h.Load()).ServeHTTP(w, r)
}

func newBench(w *workload, root string, tr *tracer) (*bench, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b := &bench{w: w, root: root, tr: tr, served: make(chan error, 1)}
	var none http.Handler = http.NotFoundHandler()
	b.front.h.Store(&none)
	b.hs = &http.Server{Handler: &b.front, ReadHeaderTimeout: 10 * time.Second}
	go func() { b.served <- b.hs.Serve(ln) }()
	b.base = "http://" + ln.Addr().String()
	b.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
	}}
	for _, o := range w.ops {
		req, err := http.NewRequest(http.MethodGet, b.base+o.URL, nil)
		if err != nil {
			b.close()
			return nil, err
		}
		b.reqs = append(b.reqs, req)
	}
	return b, nil
}

// close stops the server, the listener and the client.
func (b *bench) close() {
	b.client.CloseIdleConnections()
	if err := b.hs.Shutdown(context.Background()); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: shutdown:", err)
	}
	<-b.served
	if b.srv != nil {
		b.srv.Close()
	}
}

// newServer replaces the served instance with a fresh server, engine
// parallelism 1; the store workloads get it over a new, empty store.
func (b *bench) newServer() error {
	if b.srv != nil {
		b.srv.Close()
	}
	opts := server.Options{Parallelism: 1, CacheEntries: b.w.cache, DisableExecutor: true}
	var st *store.Store
	if b.w.store {
		dir, err := os.MkdirTemp(b.root, "store-")
		if err != nil {
			return err
		}
		if st, err = store.Open(dir); err != nil {
			return err
		}
		opts.Store = st
	}
	b.srv = server.New(opts)
	if b.tr != nil {
		b.tr.install(b.w, st)
	}
	h := b.srv.Handler()
	b.front.h.Store(&h)
	return nil
}

// resetEngine gives the next op a fresh engine: empty memo, zeroed counters.
func (b *bench) resetEngine() {
	if b.tr != nil {
		b.tr.install(b.w, nil)
		return
	}
	experiments.SetOptions(runner.Options{Parallelism: 1, CacheEntries: b.w.cache})
}

// send performs op i and returns its latency, from the send to the last
// byte read, with the body left in b.body.
func (b *bench) send(i int) (time.Duration, int, error) {
	b.body.Reset()
	start := time.Now()
	resp, err := b.client.Do(b.reqs[i])
	if err != nil {
		return 0, 0, err
	}
	_, err = b.body.ReadFrom(resp.Body)
	lat := time.Since(start)
	resp.Body.Close()
	return lat, resp.StatusCode, err
}

// setup builds the workload's state from scratch: server (and store), the
// reference responses, an untimed warm-up pass, and a final GC.
func (b *bench) setup() error {
	n := len(b.w.ops)
	b.ref = make([][]byte, n)
	b.refCounts = make([]counts, n)
	b.refBad = make([]error, n)
	if err := b.newServer(); err != nil {
		return err
	}
	if b.w.fill {
		// Cold requests: the reference bytes come from the simulation; the
		// warm-up pass then replays the list against them.
		for i := range b.w.ops {
			b.record(i, &simulatedOnce)
		}
		b.pass(passWarmup)
	} else {
		// The warm-up pass is the cold pass that records the references.
		for i := range b.w.ops {
			if b.w.freshPerOp {
				b.resetEngine()
			}
			b.record(i, b.w.want)
		}
	}
	runtime.GC()
	return nil
}

// record sends op i and keeps its body and counter change as the op's
// reference. A failed check poisons the reference.
func (b *bench) record(i int, want *counts) {
	before := experiments.EngineStats()
	_, status, err := b.send(i)
	got := delta(before, experiments.EngineStats())
	switch {
	case err != nil:
	case status != http.StatusOK:
		err = fmt.Errorf("status %d: %.200s", status, b.body.Bytes())
	case want != nil && got != *want:
		err = fmt.Errorf("cold counters %+v, want %+v", got, *want)
	default:
		err = checkGolden(b.w.ops[i], b.body.Bytes())
	}
	b.ref[i] = bytes.Clone(b.body.Bytes())
	b.refCounts[i] = got
	if err != nil {
		b.refBad[i] = fmt.Errorf("setup %s: %w", b.w.ops[i].URL, err)
	}
}

// checkGolden compares a study body with its CLI golden fixture, the
// committed ground truth. The benchmark runs from the root of a checkout.
func checkGolden(o op, body []byte) error {
	if o.golden == "" {
		return nil
	}
	want, err := os.ReadFile(filepath.Join("cmd", "mcdla", "testdata", o.golden+".golden"))
	if err != nil {
		return err
	}
	if !bytes.Equal(body, want) {
		return fmt.Errorf("body differs from the CLI fixture %s.golden", o.golden)
	}
	return nil
}

func delta(before, after counts) counts {
	return counts{
		Hits:      after.Hits - before.Hits,
		Misses:    after.Misses - before.Misses,
		StoreHits: after.StoreHits - before.StoreHits,
		Simulated: after.Simulated - before.Simulated,
	}
}

// passStats is one pass over the op list.
type passStats struct {
	ops, failed int
	lat         []time.Duration
	busy        time.Duration // sum of op latencies
	cpu         time.Duration // process CPU (user+system) across the ops
	alloc       uint64        // bytes allocated across the ops
	gcs         uint32
	firstErr    error
}

// passMode says what a pass is for.
type passMode int

const (
	passTimed  passMode = iota
	passWarmup          // setup's untimed pass: a failed check poisons the op
	passTraced          // every op is replayed through the layers after it completes
)

// pass runs every op once in list order, checking each response.
func (b *bench) pass(mode passMode) passStats {
	ps := passStats{lat: make([]time.Duration, 0, len(b.w.ops))}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	for i := range b.w.ops {
		if b.w.freshPerOp {
			b.resetEngine()
		}
		if mode == passTraced {
			b.tr.beginOp(i)
		}
		before := experiments.EngineStats()
		lat, status, err := b.send(i)
		got := delta(before, experiments.EngineStats())
		if err == nil {
			err = b.check(i, status, got)
		}
		ps.ops++
		ps.lat = append(ps.lat, lat)
		ps.busy += lat
		if err != nil {
			ps.failed++
			if ps.firstErr == nil {
				ps.firstErr = fmt.Errorf("%s: %w", b.w.ops[i].URL, err)
			}
			if mode == passWarmup && b.refBad[i] == nil {
				b.refBad[i] = fmt.Errorf("warm-up: %w", err)
			}
		}
		if mode == passTraced {
			b.tr.endOp(b, i, lat, got)
		}
	}
	ps.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	ps.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	ps.gcs = ms1.NumGC - ms0.NumGC
	return ps
}

// check validates one timed response: status 200, the exact bytes of the
// op's reference response, and the exact counter change.
func (b *bench) check(i, status int, got counts) error {
	if err := b.refBad[i]; err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d", status)
	}
	if !bytes.Equal(b.body.Bytes(), b.ref[i]) {
		return errors.New("response differs from the reference bytes")
	}
	want := b.refCounts[i]
	if b.w.want != nil {
		want = *b.w.want
	}
	if got != want {
		return fmt.Errorf("counters %+v, want %+v", got, want)
	}
	return nil
}

// cpuTime is the process's user+system CPU time, every thread included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
