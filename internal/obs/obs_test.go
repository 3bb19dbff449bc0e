package obs

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("test_gauge", "a gauge")
	g.Set(7)
	g.Dec()
	g.Add(-2)
	g.Inc()
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

func TestGetOrCreateSharesCollectors(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("shared_total", "first")
	b := r.Counter("shared_total", "second")
	if a != b {
		t.Fatal("re-registering the same counter name returned a different collector")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("shared counter did not share state")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("clash", "counter first")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("clash", "gauge second")
}

func TestInvalidMetricNamePanics(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "9starts_with_digit", "has-dash", "has space"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("name %q did not panic", bad)
				}
			}()
			r.Counter(bad, "bad")
		}()
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramVec("lat_seconds", "latency", []float64{0.1, 1, 10}).With()
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 56.05; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %g, want %g", got, want)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="10"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		`lat_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestVecChildren(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("req_total", "requests", "route", "code")
	v.With("/v1/run", "200").Add(3)
	v.With("/v1/run", "400").Inc()
	v.With("/healthz", "200").Inc()
	if v.With("/v1/run", "200").Value() != 3 {
		t.Fatal("vec child did not retain value")
	}
	hv := r.HistogramVec("req_seconds", "latency", []float64{1}, "route")
	hv.With("/v1/run").Observe(0.5)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`req_total{route="/healthz",code="200"} 1`,
		`req_total{route="/v1/run",code="200"} 3`,
		`req_total{route="/v1/run",code="400"} 1`,
		`req_seconds_bucket{route="/v1/run",le="1"} 1`,
		`req_seconds_count{route="/v1/run"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestVecWrongArityPanics(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("arity_total", "x", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label arity did not panic")
		}
	}()
	v.With("only-one")
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	depth := 0
	r.GaugeFunc("queue_depth", "jobs waiting", func() float64 { return float64(depth) })
	depth = 42
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "queue_depth 42") {
		t.Fatalf("gauge func not read at scrape time:\n%s", b.String())
	}
}

// TestExpositionParses is the satellite's exposition-parse check: every
// non-comment line must be `name value` or `name{labels} value` with a
// parseable float value, HELP/TYPE lines must precede their family's
// samples, and families must appear in sorted order (the determinism
// guarantee a golden scrape would rely on).
func TestExpositionParses(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "with \"quotes\" and\nnewline").Inc()
	r.Gauge("b_gauge", "g").Set(-3)
	r.HistogramVec("c_seconds", "h", DefaultLatencyBuckets).With().Observe(0.02)
	r.CounterVec("d_total", "v", "k").With(`weird"value\with`).Inc()
	r.GaugeFunc("e_fn", "f", func() float64 { return 1.5 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasSuffix(out, "\n") {
		t.Fatal("exposition must end with a newline")
	}
	var lastFamily string
	typed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, found := strings.Cut(rest, " ")
			if !found {
				t.Fatalf("malformed HELP line %q", line)
			}
			if name < lastFamily {
				t.Fatalf("families out of order: %q after %q", name, lastFamily)
			}
			lastFamily = name
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			switch typ {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("unknown TYPE %q in %q", typ, line)
			}
			typed[name] = true
			continue
		}
		// Sample line: name[{labels}] value
		name := line
		if i := strings.IndexByte(line, '{'); i >= 0 {
			name = line[:i]
			close := strings.LastIndexByte(line, '}')
			if close < i {
				t.Fatalf("unbalanced braces in %q", line)
			}
		} else if i := strings.IndexByte(line, ' '); i >= 0 {
			name = line[:i]
		}
		fields := strings.Fields(line[strings.LastIndexByte(line, ' ')+1:])
		if len(fields) != 1 {
			t.Fatalf("malformed sample line %q", line)
		}
		if fields[0] != "+Inf" {
			if _, err := strconv.ParseFloat(fields[0], 64); err != nil {
				t.Fatalf("unparseable value in %q: %v", line, err)
			}
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if !typed[name] && !typed[base] {
			t.Fatalf("sample %q has no preceding TYPE line", line)
		}
	}
}

// TestRegistryRace is the satellite race test: concurrent inc/observe/scrape
// under -race must be clean.
func TestRegistryRace(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("race_total", "c")
	h := r.HistogramVec("race_seconds", "h", DefaultLatencyBuckets).With()
	v := r.CounterVec("race_vec_total", "v", "worker")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			label := fmt.Sprintf("w%d", id%3)
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(float64(j) / 1000)
				v.With(label).Inc()
				if j%100 == 0 {
					var b strings.Builder
					if err := r.WritePrometheus(&b); err != nil {
						t.Error(err)
					}
					r.Snapshot()
				}
			}
		}(i)
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("race counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("race histogram count = %d, want 8000", h.Count())
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("s_total", "c").Add(2)
	r.Gauge("s_gauge", "g").Set(9)
	r.HistogramVec("s_seconds", "h", []float64{1}).With().Observe(0.5)
	snap := r.Snapshot()
	if snap["s_total"] != int64(2) {
		t.Fatalf("snapshot counter = %v", snap["s_total"])
	}
	if snap["s_gauge"] != int64(9) {
		t.Fatalf("snapshot gauge = %v", snap["s_gauge"])
	}
	hv, _ := snap["s_seconds"].(map[string]any)
	hm, ok := hv[""].(map[string]any)
	if !ok || hm["count"] != int64(1) {
		t.Fatalf("snapshot histogram = %v", snap["s_seconds"])
	}
}

func TestWallClockTimer(t *testing.T) {
	if s := StartTimer().Seconds(); s < 0 {
		t.Fatalf("negative elapsed %g", s)
	}
}

func TestDefaultRegistryStable(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default() is not a stable singleton")
	}
}
