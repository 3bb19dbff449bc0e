package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/memcentric/mcdla/internal/core"
	"github.com/memcentric/mcdla/internal/cost"
	"github.com/memcentric/mcdla/internal/dnn"
	"github.com/memcentric/mcdla/internal/dse"
	"github.com/memcentric/mcdla/internal/experiments"
	"github.com/memcentric/mcdla/internal/fleet"
	"github.com/memcentric/mcdla/internal/report"
	"github.com/memcentric/mcdla/internal/runner"
	"github.com/memcentric/mcdla/internal/scaleout"
	"github.com/memcentric/mcdla/internal/store"
	"github.com/memcentric/mcdla/internal/trace"
	"github.com/memcentric/mcdla/internal/train"
	"github.com/memcentric/mcdla/internal/units"
	"github.com/memcentric/mcdla/internal/vmem"
)

// The traced run times each op from outside the program. The request itself
// is the op's root span ("server"), and the store reads inside it are timed
// by a runner.ResultStore wrapper, which also times every store write.
// Everything else is replayed right after the request, on the op's inputs,
// through the public functions the handler calls, with a span around each
// call. A span's self time is its duration
// minus its children's; a replayed child hangs under the span whose time it
// was spent in.

// span is one timed call. Spans of one op share Op; Parent indexes the
// enclosing span (-1 for an op's root).
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Replay marks a span timed after the request, on the same inputs,
	// rather than inside it.
	Replay bool `json:"replay,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

type tracer struct {
	epoch time.Time

	// mu guards everything below: the store wrapper runs on the engine's
	// worker goroutines.
	mu    sync.Mutex
	spans []span
	stack []int // open replay spans, innermost last
	op    int   // sequence number of the current op
	root  int   // the current op's server span
	on    bool  // inside a traced request: time store reads
	// capture records every simulated job while a study is replayed.
	capture bool
	sims    []simRec

	st     *store.Store // the served store, for entry sizes
	loaded []runner.Job // store reads of the current request
	// results holds every result the store wrapper saw, so the shadow
	// engine can answer the same job without simulating it.
	results   map[runner.Job]core.Result
	shadow    *runner.Engine
	spanCount map[runner.Job]int

	tally    tally
	failed   int
	firstErr error
}

// simRec is one job a replayed study simulated, and the span it ran under.
type simRec struct {
	job    runner.Job
	parent int
}

// tally holds the traced ops' exact counts.
type tally struct {
	ops                        int
	hits, storeHits, simulated int64
	readBytes, writtenBytes    int64
	saves                      int
	saveTime                   time.Duration
	respBytes, reportBytes     int64
	plans, sims                int
	planTraffic, simSpans      int64
	dseSimulated, dseGrid      int
	renders                    map[report.Format]int
}

func newTracer() *tracer {
	t := &tracer{
		epoch:     time.Now(),
		results:   map[runner.Job]core.Result{},
		spanCount: map[runner.Job]int{},
		tally:     tally{renders: map[report.Format]int{}},
	}
	t.shadow = runner.New(runner.Options{Parallelism: 1, Store: shadowStore{t}})
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// install gives the shared engine a fresh memo behind the store wrapper.
// Without a served store the wrapper misses every load and only records.
func (t *tracer) install(w *workload, st *store.Store) {
	t.st = st
	experiments.SetOptions(runner.Options{Parallelism: 1, CacheEntries: w.cache, Store: &tracedStore{t: t, inner: st}})
}

// begin opens a replay span under the innermost open one.
func (t *tracer) begin(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := t.stack[len(t.stack)-1]
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: t.now(), Replay: true})
	idx := len(t.spans) - 1
	t.stack = append(t.stack, idx)
	return idx
}

func (t *tracer) end() {
	t.mu.Lock()
	defer t.mu.Unlock()
	idx := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[idx].End = t.now()
}

// timed runs fn inside a replay span.
func (t *tracer) timed(name string, fn func() error) error {
	t.begin(name)
	defer t.end()
	return fn()
}

// under runs fn with parent as the enclosing span of the spans fn opens.
func (t *tracer) under(parent int, fn func() error) error {
	t.mu.Lock()
	saved := t.stack
	t.stack = []int{parent}
	t.mu.Unlock()
	err := fn()
	t.mu.Lock()
	t.stack = saved
	t.mu.Unlock()
	return err
}

// beginOp opens op i's server span just before its request is sent.
func (t *tracer) beginOp(i int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: "server", Op: t.op, Parent: -1, Start: t.now()})
	t.root = len(t.spans) - 1
	t.on = true
	t.loaded = nil
}

// endOp closes op i's server span at the measured latency, counts what the
// request did, and replays the op through the layers.
func (t *tracer) endOp(b *bench, i int, lat time.Duration, got counts) {
	t.mu.Lock()
	t.on = false
	t.spans[t.root].End = t.spans[t.root].Start + int64(lat)
	loaded := t.loaded
	t.mu.Unlock()

	t.tally.ops++
	t.tally.hits += got.Hits
	t.tally.storeHits += got.StoreHits
	t.tally.simulated += got.Simulated
	t.tally.respBytes += int64(b.body.Len())
	t.tally.readBytes += t.entryBytes(loaded)

	o := b.w.ops[i]
	var out string
	err := t.under(t.root, func() error {
		var err error
		if o.route == "" {
			out, err = t.replayRun(o, got)
		} else {
			out, err = t.replayStudy(b.w, o)
		}
		return err
	})
	if err == nil && out != b.body.String() {
		err = errors.New("the replay rendered other bytes than the response")
	}
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = fmt.Errorf("replay %s: %w", o.URL, err)
		}
	}
	t.op++
}

// entryBytes sums the sizes of the jobs' store entries, at the path the
// store package documents: results/<hh>/<hash>.json.
func (t *tracer) entryBytes(jobs []runner.Job) int64 {
	var n int64
	for _, j := range jobs {
		h, err := store.JobHash(j)
		if err != nil {
			continue
		}
		if fi, err := os.Stat(filepath.Join(t.st.Dir(), "results", h[:2], h+".json")); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// replayRun replays a /v1/run op. The build is replayed on the live engine,
// where the request left the result in the memo; the runner's own share of
// the request (job key, memo lookup, pool dispatch) is timed as a memo hit
// on a shadow engine holding the same result. The schedule a store hit
// rebuilds is rebuilt again from scratch.
func (t *tracer) replayRun(o op, got counts) (string, error) {
	ctx := context.Background()
	p := o.point
	d, err := p.DesignPoint()
	if err != nil {
		return "", err
	}
	job := runner.Job{
		Design: d, Workload: p.Workload, Strategy: p.Strategy, Batch: p.Batch,
		Workers: experiments.Workers, SeqLen: p.SeqLen, Precision: p.Precision, Tag: "run",
	}
	var rep *report.Report
	build := t.begin("experiments.build")
	rep, err = experiments.RunReportFor(ctx, d, p.Workload, p.Strategy, p.Batch, p.SeqLen, p.Precision, 0)
	t.end()
	if err != nil {
		return "", err
	}
	if err := t.shadowRun(ctx, job); err != nil { // untimed: fills the shadow memo
		return "", err
	}
	if err := t.under(build, func() error {
		return t.timed("runner.run", func() error { return t.shadowRun(ctx, job) })
	}); err != nil {
		return "", err
	}
	out, err := t.render(rep, o.format)
	if err != nil {
		return "", err
	}
	if got.StoreHits > 0 {
		if _, err := t.replaySchedule(job); err != nil {
			return "", err
		}
	}
	return out, nil
}

func (t *tracer) shadowRun(ctx context.Context, job runner.Job) error {
	if _, err := t.shadow.Run(ctx, []runner.Job{job}, nil); err != nil {
		return err
	}
	_, err := t.shadow.Schedule(job)
	return err
}

func (t *tracer) render(rep *report.Report, f report.Format) (string, error) {
	var out string
	err := t.timed("report.render."+string(f), func() error {
		var err error
		out, err = report.Render(rep, f)
		return err
	})
	t.tally.renders[f]++
	t.tally.reportBytes += int64(len(out))
	return out, err
}

// replaySchedule rebuilds a job's training schedule; the graph build inside
// it is timed again on its own as the child.
func (t *tracer) replaySchedule(j runner.Job) (*train.Schedule, error) {
	var s *train.Schedule
	sched := t.begin("train.schedule")
	s, err := train.BuildSeq(j.Workload, j.Batch, j.Workers, j.Strategy, j.SeqLen, j.Precision)
	t.end()
	if err != nil {
		return nil, err
	}
	batch := j.Batch
	if j.Strategy == train.DataParallel {
		batch /= j.Workers
	}
	return s, t.under(sched, func() error {
		return t.timed("dnn.build", func() error {
			_, err := dnn.BuildSeq(j.Workload, batch, j.SeqLen)
			return err
		})
	})
}

// replaySim plans (when plan is set, on the fresh schedule) and simulates a
// job, and counts the simulator's spans once per distinct job.
func (t *tracer) replaySim(j runner.Job, s *train.Schedule, plan bool) error {
	if plan {
		var prep *vmem.Prepared
		if err := t.timed("vmem.plan", func() error {
			var err error
			prep, err = s.Prepared(j.Design.Oracle)
			return err
		}); err != nil {
			return err
		}
		t.tally.plans++
		t.tally.planTraffic += prep.Plan.TrafficBytes()
	}
	if err := t.timed("core.simulate", func() error {
		_, err := core.Simulate(j.Design, s)
		return err
	}); err != nil {
		return err
	}
	key := j.Canonical()
	n, ok := t.spanCount[key]
	if !ok {
		var lg trace.Log
		if _, err := core.SimulateTraced(j.Design, s, &lg); err != nil {
			return err
		}
		n = len(lg.Spans)
		t.spanCount[key] = n
	}
	t.tally.sims++
	t.tally.simSpans += int64(n)
	return nil
}

// replayStudy replays a study op cold: a fresh engine, the route's builder
// (through the dse.Runner and fleet.Simulator seams for optimize and fleet),
// then every simulation the build ran, and the render.
func (t *tracer) replayStudy(w *workload, o op) (string, error) {
	ctx := context.Background()
	t.install(w, nil)
	eng := runner.New(runner.Options{Parallelism: 1, CacheEntries: w.cache, Store: &tracedStore{t: t}})
	t.mu.Lock()
	t.capture, t.sims = true, nil
	t.mu.Unlock()
	var rep *report.Report
	build := t.begin("experiments.build")
	rep, err := t.buildStudy(ctx, o, eng)
	t.end()
	t.mu.Lock()
	t.capture = false
	sims := t.sims
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	if o.route == "plane" {
		if err := t.under(build, func() error { return t.replayPlane(o.query) }); err != nil {
			return "", err
		}
	}
	// As in the engine: one schedule per training point, one plan per
	// schedule and oracle mode, one simulation per job.
	type planKey struct {
		sched  runner.Job
		oracle bool
	}
	scheds := map[runner.Job]*train.Schedule{}
	planned := map[planKey]bool{}
	for _, r := range sims {
		sk := r.job.Canonical()
		sk.Design = core.Design{}
		pk := planKey{sk, r.job.Design.Oracle}
		if err := t.under(r.parent, func() error {
			s, ok := scheds[sk]
			if !ok {
				var err error
				if s, err = t.replaySchedule(r.job); err != nil {
					return err
				}
				scheds[sk] = s
			}
			return t.replaySim(r.job, s, !planned[pk])
		}); err != nil {
			return "", err
		}
		planned[pk] = true
	}
	return t.render(rep, report.FormatText)
}

// buildStudy builds a study route's report from its query, as the route's
// handler does.
func (t *tracer) buildStudy(ctx context.Context, o op, eng *runner.Engine) (*report.Report, error) {
	q := o.query
	strategy := train.DataParallel
	if v := q.Get("strategy"); v != "" {
		var err error
		if strategy, err = train.ParseStrategy(v); err != nil {
			return nil, err
		}
	}
	switch o.route {
	case "fig2":
		rows, err := experiments.Fig2(ctx)
		return reportOf(experiments.Fig2Report, rows, err)
	case "fig11":
		rows, err := experiments.Fig11(ctx, strategy)
		if err != nil {
			return nil, err
		}
		return experiments.Fig11Report(rows, strategy), nil
	case "fig12":
		rows, err := experiments.Fig12(ctx)
		return reportOf(experiments.Fig12Report, rows, err)
	case "fig13":
		rows, speedups, err := experiments.Fig13(ctx, strategy)
		if err != nil {
			return nil, err
		}
		return experiments.Fig13Report(rows, speedups, strategy), nil
	case "fig14":
		rows, err := experiments.Fig14(ctx)
		return reportOf(experiments.Fig14Report, rows, err)
	case "headline":
		h, err := experiments.RunHeadline(ctx)
		return reportOf(experiments.HeadlineReport, h, err)
	case "sens":
		rows, err := experiments.Sensitivity(ctx)
		return reportOf(experiments.SensitivityReport, rows, err)
	case "scale":
		rows, err := experiments.Scalability(ctx)
		return reportOf(experiments.ScalabilityReport, rows, err)
	case "explore":
		rows, err := experiments.Explore(ctx, []int{4, 6, 8, 12}, []float64{25, 50, 100})
		return reportOf(experiments.ExploreReport, rows, err)
	case "transformer":
		seqlens, err := units.ParsePositiveInts("seqlens", q.Get("seqlens"))
		if err != nil {
			return nil, err
		}
		rows, err := experiments.TransformerSweep(ctx, nil, seqlens, nil)
		if err != nil {
			return nil, err
		}
		cRows, err := experiments.AttentionCompress(ctx)
		if err != nil {
			return nil, err
		}
		return experiments.TransformerStudyReport(rows, cRows), nil
	case "plane":
		workload, counts, compare, err := planeParams(q)
		if err != nil {
			return nil, err
		}
		pts, err := experiments.ScaleOutRows(ctx, workload, counts, false)
		if err != nil {
			return nil, err
		}
		rep := experiments.ScaleOutReport(workload, pts, false)
		if compare {
			rows, err := experiments.ScaleOutCompare(ctx, workload, counts, pts)
			if err != nil {
				return nil, err
			}
			rep = report.Merge("plane", rep, experiments.ScaleOutCompareReport(workload, rows))
		}
		return rep, nil
	case "optimize":
		return t.optimize(ctx, q, eng)
	case "fleet":
		return t.fleet(ctx, q, eng)
	}
	return nil, fmt.Errorf("no replay for route %q", o.route)
}

func reportOf[T any](build func(T) *report.Report, rows T, err error) (*report.Report, error) {
	if err != nil {
		return nil, err
	}
	return build(rows), nil
}

// planeParams reads the plane route's parameters with the route's defaults.
func planeParams(q map[string][]string) (workload string, counts []int, compare bool, err error) {
	get := func(k string) string {
		if v := q[k]; len(v) > 0 {
			return v[0]
		}
		return ""
	}
	workload = get("workload")
	if workload == "" {
		workload = "VGG-E"
	}
	counts = []int{1, 2, 4, 8, 16}
	if v := get("nodes"); v != "" {
		if counts, err = units.ParsePositiveInts("nodes", v); err != nil {
			return "", nil, false, err
		}
	}
	return workload, counts, get("compare") == "true", nil
}

// replayPlane re-runs the plane study's event-driven simulations: the DC/MC
// pair of every plane size, plus the hybrid strategy the comparison adds.
func (t *tracer) replayPlane(q map[string][]string) error {
	workload, counts, compare, err := planeParams(q)
	if err != nil {
		return err
	}
	batch := experiments.ScaleOutBatch(counts)
	for _, n := range counts {
		p := scaleout.Default(n)
		if err := t.timed("scaleout.simulate", func() error {
			_, err := p.EvalPoint(workload, batch, false)
			return err
		}); err != nil {
			return err
		}
		if compare && n > 1 && batch%n == 0 {
			if err := t.timed("scaleout.simulate", func() error {
				_, err := p.Simulate(workload, batch, true, scaleout.Hybrid)
				return err
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// optimize runs the optimizer search through the dse.Runner seam.
func (t *tracer) optimize(ctx context.Context, q map[string][]string, eng *runner.Engine) (*report.Report, error) {
	get := func(k string) string {
		if v := q[k]; len(v) > 0 {
			return v[0]
		}
		return ""
	}
	opts := dse.Options{Search: dse.Grid, Objective: dse.PerfPerDollar}
	var err error
	if v := get("objective"); v != "" {
		if opts.Objective, err = dse.ParseObjective(v); err != nil {
			return nil, err
		}
	}
	if v := get("search"); v != "" {
		if opts.Search, err = dse.ParseSearch(v); err != nil {
			return nil, err
		}
	}
	if get("surrogate") != "" {
		opts.Search = dse.Surrogate
	}
	if v := get("max-power"); v != "" {
		if opts.Constraints.MaxPowerW, err = strconv.ParseFloat(v, 64); err != nil {
			return nil, err
		}
	}
	var res dse.Result
	if err := t.timed("dse.search", func() error {
		var err error
		res, err = dse.Search(ctx, timedRunner{t, eng}, experiments.DefaultOptimizeSpace(), opts)
		return err
	}); err != nil {
		return nil, err
	}
	t.tally.dseSimulated += res.Simulated
	t.tally.dseGrid += res.GridSize
	return experiments.OptimizeReport(res), nil
}

// fleet schedules the trace on every cluster through the fleet.Simulator
// seam.
func (t *tracer) fleet(ctx context.Context, q map[string][]string, eng *runner.Engine) (*report.Report, error) {
	get := func(k string) string {
		if v := q[k]; len(v) > 0 {
			return v[0]
		}
		return ""
	}
	tr := fleet.DefaultTrace()
	pods := experiments.FleetPods
	var designs []string
	if v := get("jobs"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return nil, err
		}
		tr = fleet.SyntheticTrace(n)
	}
	if v := get("pods"); v != "" {
		var err error
		if pods, err = strconv.Atoi(v); err != nil {
			return nil, err
		}
	}
	if v := get("designs"); v != "" {
		designs = strings.Split(v, ",")
	}
	clusters, err := experiments.FleetClusters(pods, designs)
	if err != nil {
		return nil, err
	}
	sim := timedRunner{t, eng}
	results := make([]*fleet.Result, len(clusters))
	for i, c := range clusters {
		if err := t.timed("fleet.schedule", func() error {
			var err error
			results[i], err = fleet.Run(ctx, c, tr, cost.Default(), func(ctx context.Context, jobs []runner.Job) ([]core.Result, error) {
				return sim.Run(ctx, jobs, nil)
			})
			return err
		}); err != nil {
			return nil, err
		}
	}
	return experiments.FleetReport(results), nil
}

// timedRunner is a dse.Runner (and, through a closure, a fleet.Simulator)
// that times every grid the search or the scheduler submits.
type timedRunner struct {
	t   *tracer
	eng *runner.Engine
}

func (r timedRunner) Run(ctx context.Context, jobs []runner.Job, progress func(runner.Update)) ([]core.Result, error) {
	var out []core.Result
	err := r.t.timed("runner.run", func() error {
		var err error
		out, err = r.eng.Run(ctx, jobs, progress)
		return err
	})
	return out, err
}

// tracedStore is the runner.ResultStore installed on the engine in a traced
// run. It times the served store's reads inside a traced request and every
// write, keeps every result it sees for the shadow engine, and records the
// jobs a replayed study simulates. With a nil inner store every load misses.
type tracedStore struct {
	t     *tracer
	inner *store.Store
}

func (s *tracedStore) Load(j runner.Job) (core.Result, bool) {
	if s.inner == nil {
		return core.Result{}, false
	}
	idx := s.t.open("store.load")
	r, ok := s.inner.Load(j)
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if ok {
		s.t.results[j.Canonical()] = r
	}
	if idx >= 0 {
		s.t.spans[idx].End = s.t.now()
		if ok {
			s.t.loaded = append(s.t.loaded, j)
		}
	}
	return r, ok
}

func (s *tracedStore) Save(j runner.Job, r core.Result) {
	s.t.mu.Lock()
	s.t.results[j.Canonical()] = r
	if s.t.capture {
		s.t.sims = append(s.t.sims, simRec{job: j, parent: s.t.stack[len(s.t.stack)-1]})
	}
	s.t.mu.Unlock()
	if s.inner == nil {
		return
	}
	// No timed op writes; the writes timed here are the set-up's store fill.
	start := time.Now()
	s.inner.Save(j, r)
	d := time.Since(start)
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	s.t.tally.saves++
	s.t.tally.saveTime += d
	s.t.tally.writtenBytes += s.t.entryBytes([]runner.Job{j})
}

// open starts an in-request span under the op's server span; -1 outside a
// traced request.
func (t *tracer) open(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: t.root, Start: t.now()})
	return len(t.spans) - 1
}

// shadowStore answers the shadow engine from the results the store wrapper
// saw.
type shadowStore struct{ t *tracer }

func (s shadowStore) Load(j runner.Job) (core.Result, bool) {
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	r, ok := s.t.results[j.Canonical()]
	return r, ok
}

func (shadowStore) Save(runner.Job, core.Result) {}

// ledgerNames are the per-layer metrics, in BENCHMARK.json order.
var ledgerNames = []string{
	"server.handler_self_ms", "server.response_kb_per_op",
	"experiments.build_self_ms",
	"runner.run_self_ms", "runner.memo_hits_per_op", "runner.store_hits_per_op", "runner.simulated_per_op",
	"store.load_ms", "store.read_kb_per_op", "store.save_ms", "store.written_kb_per_op",
	"dnn.build_ms", "train.schedule_self_ms",
	"vmem.plan_ms", "vmem.traffic_mb_per_plan",
	"core.simulate_ms", "core.spans_per_sim", "core.host_us_per_span",
	"scaleout.simulate_ms",
	"dse.search_self_ms", "dse.simulated_per_point",
	"fleet.schedule_self_ms",
	"report.render_ms.json", "report.render_ms.text", "report.render_ms.csv", "report.render_ms.md", "report.kb_per_op",
	"runtime.gc_cycles_per_op",
	"bench.trace_overhead_pct",
}

// ledger computes the per-layer metrics. Times ending in _ms are per op of
// the workload (render times per render of that format, store writes per
// write); *_self_ms is the layer's own time, its children's subtracted.
// plain are the untraced passes of the same run, the base of the GC count
// and the trace overhead.
func (t *tracer) ledger(plain, withTrace []passStats) map[string]metric {
	total := map[string]time.Duration{}
	self := map[string]time.Duration{}
	count := map[string]int{}
	selfOf := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		selfOf[i] += s.dur()
		if s.Parent >= 0 {
			selfOf[s.Parent] -= s.dur()
		}
	}
	for i, s := range t.spans {
		total[s.Name] += s.dur()
		self[s.Name] += selfOf[i]
		count[s.Name]++
	}
	n := float64(t.tally.ops)
	perOp := func(d time.Duration) float64 { return div(ms(d), n) }
	kb := func(b int64) float64 { return div(float64(b)/1024, n) }
	var plainOps, plainGCs int
	for _, ps := range plain {
		plainOps += ps.ops
		plainGCs += int(ps.gcs)
	}
	m := map[string]metric{
		"server.handler_self_ms":    {perOp(self["server"]), "ms"},
		"server.response_kb_per_op": {kb(t.tally.respBytes), "KB"},
		"experiments.build_self_ms": {perOp(self["experiments.build"]), "ms"},
		"runner.run_self_ms":        {perOp(self["runner.run"]), "ms"},
		"runner.memo_hits_per_op":   {div(float64(t.tally.hits), n), "count"},
		"runner.store_hits_per_op":  {div(float64(t.tally.storeHits), n), "count"},
		"runner.simulated_per_op":   {div(float64(t.tally.simulated), n), "count"},
		"store.load_ms":             {perOp(total["store.load"]), "ms"},
		"store.read_kb_per_op":      {kb(t.tally.readBytes), "KB"},
		"store.save_ms":             {div(ms(t.tally.saveTime), float64(t.tally.saves)), "ms"},
		"store.written_kb_per_op":   {div(float64(t.tally.writtenBytes)/1024, float64(t.tally.saves)), "KB"},
		"dnn.build_ms":              {perOp(total["dnn.build"]), "ms"},
		"train.schedule_self_ms":    {perOp(self["train.schedule"]), "ms"},
		"vmem.plan_ms":              {perOp(total["vmem.plan"]), "ms"},
		"vmem.traffic_mb_per_plan":  {div(float64(t.tally.planTraffic)/1e6, float64(t.tally.plans)), "MB"},
		"core.simulate_ms":          {perOp(total["core.simulate"]), "ms"},
		"core.spans_per_sim":        {div(float64(t.tally.simSpans), float64(t.tally.sims)), "count"},
		"core.host_us_per_span":     {div(float64(total["core.simulate"])/1e3, float64(t.tally.simSpans)), "us"},
		"scaleout.simulate_ms":      {perOp(total["scaleout.simulate"]), "ms"},
		"dse.search_self_ms":        {perOp(self["dse.search"]), "ms"},
		"dse.simulated_per_point":   {div(float64(t.tally.dseSimulated), float64(t.tally.dseGrid)), "ratio"},
		"fleet.schedule_self_ms":    {perOp(self["fleet.schedule"]), "ms"},
		"report.kb_per_op":          {kb(t.tally.reportBytes), "KB"},
		"runtime.gc_cycles_per_op":  {div(float64(plainGCs), float64(plainOps)), "count"},
		"bench.trace_overhead_pct":  {100 * (div(rate(plain), rate(withTrace)) - 1), "%"},
	}
	for _, f := range runFormats {
		name := "report.render." + string(f)
		m["report.render_ms."+string(f)] = metric{div(ms(total[name]), float64(count[name])), "ms"}
	}
	return m
}

// rate is the passes' ops per second of request time.
func rate(passes []passStats) float64 {
	var ops int
	var busy time.Duration
	for _, ps := range passes {
		ops += ps.ops
		busy += ps.busy
	}
	return div(float64(ops), busy.Seconds())
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// printTable prints the ledger, one metric a line.
func (t *tracer) printTable(out io.Writer, workload string, m map[string]metric) {
	fmt.Fprintf(out, "per-layer ledger, %s: %d traced ops, %d spans\n", workload, t.tally.ops, len(t.spans))
	for _, name := range ledgerNames {
		fmt.Fprintf(out, "  %-28s %14.4f %s\n", name, m[name].Value, m[name].Unit)
	}
}

// writeSpans writes every span, in the order recorded, as one JSON array.
func (t *tracer) writeSpans(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
