// Package obs is the service-face half of the telemetry plane: a
// dependency-free, concurrency-safe metrics registry (counters, gauges,
// histograms with fixed bucket layouts, plus labelled vec forms) exposed as
// Prometheus text exposition and through expvar.
//
// The package deliberately sits outside the simulator's deterministic scope:
// nothing in a Registry ever feeds report bytes, golden fixtures, or store
// keys — metrics are operational telemetry about a running process
// (request rates, cache hit ratios, queue depth), observed on the wall
// clock. The simulator face of the telemetry plane is internal/trace, whose
// timelines run on the virtual clock and are byte-identical at any
// parallelism; the nondeterminism analyzer enforces the boundary by banning
// obs's wall-clock helpers (StartTimer, SinceSeconds) inside the
// deterministic packages while counters and gauges — plain atomic
// arithmetic — are permitted everywhere.
//
// Instrumentation cost: Counter.Inc/Add, Gauge.Set and Histogram.Observe
// are single atomic operations with zero allocations, and the repo's hot
// seams only touch them at grid boundaries (one bump per simulation job,
// never per event), so the sim.Channel and scaleout event loops carry no
// telemetry overhead at all — pinned by alloc budgets and the benchgate
// baseline.
package obs

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing value. The zero value is ready to
// use; Inc/Add are single atomic adds (0 allocs), safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas are ignored (counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down. The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Inc adds one; Dec subtracts one; Add adds n (any sign).
func (g *Gauge) Inc()         { g.v.Add(1) }
func (g *Gauge) Dec()         { g.v.Add(-1) }
func (g *Gauge) Add(n int64)  { g.v.Add(n) }
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into a fixed cumulative bucket layout.
// Observe is lock-free (one atomic add per observation plus the running
// sum), so it is safe on request paths; the bucket slice is immutable after
// construction.
type Histogram struct {
	bounds []float64      // ascending upper bounds; +Inf is implicit
	counts []atomic.Int64 // len(bounds)+1, last is the +Inf bucket
	count  atomic.Int64
	sum    atomicFloat
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
}

// Count reports the total number of observations; Sum their running total.
func (h *Histogram) Count() int64 { return h.count.Load() }
func (h *Histogram) Sum() float64 { return h.sum.load() }

// atomicFloat is a float64 accumulated via CAS on its bit pattern.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// DefaultLatencyBuckets is the fixed layout for request latencies: 1 ms to
// 10 s, roughly logarithmic — the same shape every scrape sees, so
// dashboards and the exposition parse check can rely on it.
var DefaultLatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// ------------------------------------------------------------------ registry

// kind discriminates registered metric families for the TYPE line and for
// get-or-create collision checks.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindGaugeFunc
	kindCounterFunc
	kindCounterVec
	kindHistogramVec
)

func (k kind) String() string {
	switch k {
	case kindCounter, kindCounterVec, kindCounterFunc:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogramVec:
		return "histogram"
	}
	return "untyped"
}

// family is one registered metric name: its metadata plus either a single
// collector or a labelled child set.
type family struct {
	name   string
	help   string
	kind   kind
	labels []string // vec label names, in declared order

	counter *Counter
	gauge   *Gauge
	gaugeFn func() float64
	bounds  []float64 // vec histogram layout

	mu       sync.Mutex
	children map[string]any // joined label values → *Counter / *Histogram
}

// Registry holds metric families and renders them. The zero value is not
// usable; build one with NewRegistry or use the process Default.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family

	expvarOnce sync.Once
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

var defaultRegistry = NewRegistry()

// Default is the process-wide registry every mcdla surface registers into:
// the HTTP service exposes it at /metrics, the runner's cache counters and
// the worker loop's claim counters live in it, and /healthz reads the same
// counters — one set of numbers, two endpoints.
func Default() *Registry { return defaultRegistry }

// register is the get-or-create core: re-registering an existing name with
// the same kind returns the existing family (so engine rebuilds and repeated
// SetOptions calls share one set of counters); a kind mismatch panics — it
// is a programming error, not runtime input.
func (r *Registry) register(name, help string, k kind, init func(*family)) *family {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != k {
			panic(fmt.Sprintf("obs: metric %q re-registered as %v (was %v)", name, k, f.kind))
		}
		return f
	}
	f := &family{name: name, help: help, kind: k, children: map[string]any{}}
	init(f)
	r.families[name] = f
	return f
}

// Counter returns the registered counter named name, creating it on first
// use.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, kindCounter, func(f *family) { f.counter = &Counter{} })
	return f.counter
}

// Gauge returns the registered gauge named name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, kindGauge, func(f *family) { f.gauge = &Gauge{} })
	return f.gauge
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time —
// the shape for values owned elsewhere (queue depth from the store's jobs
// directory, process uptime). Re-registering replaces the function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, kindGaugeFunc, func(f *family) {})
	f.mu.Lock()
	f.gaugeFn = fn
	f.mu.Unlock()
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — for monotonic values owned elsewhere (the engine's cache hit
// accounting, which must survive engine rebuilds by always reading the
// current engine). fn must be monotonically non-decreasing for the TYPE
// declaration to be honest. Re-registering replaces the function.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.register(name, help, kindCounterFunc, func(f *family) {})
	f.mu.Lock()
	f.gaugeFn = fn
	f.mu.Unlock()
}

// newHistogram builds one child over the family's sorted bounds, which the
// children share read-only.
func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// CounterVec is a counter family with a fixed label set.
type CounterVec struct{ f *family }

// CounterVec returns the labelled counter family named name, creating it on
// first use. Label names are fixed at first registration.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	f := r.register(name, help, kindCounterVec, func(f *family) {
		f.labels = append([]string(nil), labels...)
	})
	return &CounterVec{f: f}
}

// With returns the child counter for the given label values (one per label
// name, in declared order), creating it on first use.
func (v *CounterVec) With(values ...string) *Counter {
	c, _ := v.f.child(values, func() any { return &Counter{} }).(*Counter)
	return c
}

// HistogramVec is a histogram family with a fixed label set and one shared
// bucket layout.
type HistogramVec struct{ f *family }

// HistogramVec returns the labelled histogram family named name, creating it
// on first use.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	f := r.register(name, help, kindHistogramVec, func(f *family) {
		f.labels = append([]string(nil), labels...)
		f.bounds = append([]float64(nil), buckets...)
		sort.Float64s(f.bounds)
	})
	return &HistogramVec{f: f}
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	h, _ := v.f.child(values, func() any { return newHistogram(v.f.bounds) }).(*Histogram)
	return h
}

// child returns the collector for a label-value tuple, creating it with mk
// on first use. The number of values must match the declared label names.
func (f *family) child(values []string, mk func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		c = mk()
		f.children[key] = c
	}
	return c
}

// ---------------------------------------------------------------- exposition

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4). Output is deterministic: families sort by name and
// children by label values, so two scrapes with the same counts are
// byte-identical.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	//mcdlalint:allow maporder -- snapshot is sorted by name immediately below
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		f.write(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) write(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	switch f.kind {
	case kindCounter:
		fmt.Fprintf(b, "%s %d\n", f.name, f.counter.Value())
	case kindGauge:
		fmt.Fprintf(b, "%s %d\n", f.name, f.gauge.Value())
	case kindGaugeFunc, kindCounterFunc:
		f.mu.Lock()
		fn := f.gaugeFn
		f.mu.Unlock()
		v := 0.0
		if fn != nil {
			v = fn()
		}
		fmt.Fprintf(b, "%s %s\n", f.name, formatFloat(v))
	case kindCounterVec:
		for _, key := range f.childKeys() {
			f.mu.Lock()
			c := f.children[key].(*Counter)
			f.mu.Unlock()
			fmt.Fprintf(b, "%s{%s} %d\n", f.name, f.labelPairs(key), c.Value())
		}
	case kindHistogramVec:
		for _, key := range f.childKeys() {
			f.mu.Lock()
			h := f.children[key].(*Histogram)
			f.mu.Unlock()
			writeHistogram(b, f.name, f.labelPairs(key), h)
		}
	}
}

// childKeys snapshots the vec's label tuples in sorted order.
func (f *family) childKeys() []string {
	f.mu.Lock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	f.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// labelPairs renders a child key as `name="value",...` in declared label
// order.
func (f *family) labelPairs(key string) string {
	values := strings.Split(key, "\x00")
	pairs := make([]string, len(f.labels))
	for i, name := range f.labels {
		pairs[i] = name + `="` + escapeLabel(values[i]) + `"`
	}
	return strings.Join(pairs, ",")
}

// writeHistogram renders the cumulative bucket series plus _sum and _count.
func writeHistogram(b *strings.Builder, name, labels string, h *Histogram) {
	cum := int64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket{%s} %d\n", name, joinLabels(labels, `le="`+formatFloat(bound)+`"`), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket{%s} %d\n", name, joinLabels(labels, `le="+Inf"`), cum)
	if labels == "" {
		fmt.Fprintf(b, "%s_sum %s\n", name, formatFloat(h.Sum()))
		fmt.Fprintf(b, "%s_count %d\n", name, h.Count())
	} else {
		fmt.Fprintf(b, "%s_sum{%s} %s\n", name, labels, formatFloat(h.Sum()))
		fmt.Fprintf(b, "%s_count{%s} %d\n", name, labels, h.Count())
	}
}

func joinLabels(labels, le string) string {
	if labels == "" {
		return le
	}
	return labels + "," + le
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		alpha := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// ------------------------------------------------------------------- expvar

// PublishExpvar exposes the registry under the given expvar name (served on
// /debug/vars): a snapshot map of every family's current values. Safe to
// call repeatedly; the variable is published once.
func (r *Registry) PublishExpvar(name string) {
	r.expvarOnce.Do(func() {
		expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
	})
}

// Snapshot returns the registry's current values as a plain map — single
// collectors as numbers, vecs as label-tuple → value maps, histograms as
// {count, sum}. It backs the expvar view and tests.
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	//mcdlalint:allow maporder -- the output map is keyed by family name; insertion order is irrelevant
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	out := make(map[string]any, len(fams))
	for _, f := range fams {
		switch f.kind {
		case kindCounter:
			out[f.name] = f.counter.Value()
		case kindGauge:
			out[f.name] = f.gauge.Value()
		case kindGaugeFunc, kindCounterFunc:
			f.mu.Lock()
			fn := f.gaugeFn
			f.mu.Unlock()
			if fn != nil {
				out[f.name] = fn()
			}
		case kindCounterVec:
			m := map[string]int64{}
			for _, key := range f.childKeys() {
				f.mu.Lock()
				c := f.children[key].(*Counter)
				f.mu.Unlock()
				m[f.labelPairs(key)] = c.Value()
			}
			out[f.name] = m
		case kindHistogramVec:
			m := map[string]any{}
			for _, key := range f.childKeys() {
				f.mu.Lock()
				h := f.children[key].(*Histogram)
				f.mu.Unlock()
				m[f.labelPairs(key)] = map[string]any{"count": h.Count(), "sum": h.Sum()}
			}
			out[f.name] = m
		}
	}
	return out
}
