package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"github.com/memcentric/mcdla/internal/experiments"
	"github.com/memcentric/mcdla/internal/runner"
)

// The benchmark runs from the root of a checkout (the study checks read the
// CLI goldens there), and so do its tests.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// TestOpLists pins the op lists of seed 1 and checks the properties the
// workloads rely on: the same seed gives the same list, and no two points
// of a /v1/run list share a training schedule.
func TestOpLists(t *testing.T) {
	want := map[string]struct {
		ops    int
		digest string
	}{
		"run-memo":     {168, "9e47e69f1aa83ea8"},
		"run-store":    {126, "a60ff3224e8e934c"},
		"studies-cold": {19, "113975d67d36b2cf"},
	}
	a, b := workloads(1), workloads(1)
	for _, name := range workloadNames {
		ops := a[name].ops
		if got := opListDigest(ops); got != opListDigest(b[name].ops) {
			t.Errorf("%s: seed 1 gave two different lists", name)
		}
		if got, w := opListDigest(ops), want[name]; len(ops) != w.ops || got != w.digest {
			t.Errorf("%s: %d ops, digest %s; want %d ops, digest %s", name, len(ops), got, w.ops, w.digest)
		}
		if name == "studies-cold" {
			continue
		}
		seen := map[runner.Job]bool{}
		for _, o := range ops {
			p := o.point
			key := runner.Job{Workload: p.Workload, Strategy: p.Strategy, Batch: p.Batch, Precision: p.Precision}
			if seen[key] {
				t.Errorf("%s: schedule %+v appears twice", name, key)
			}
			seen[key] = true
		}
	}
	if opListDigest(workloads(2)["run-memo"].ops) == opListDigest(a["run-memo"].ops) {
		t.Error("seeds 1 and 2 gave the same run-memo list")
	}
}

// memoBench sets up run-memo over the first n ops of seed 1.
func memoBench(t *testing.T, n int) *bench {
	t.Helper()
	w := workloads(1)["run-memo"]
	w.ops = w.ops[:n]
	b, err := newBench(w, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.close)
	if err := b.setup(); err != nil {
		t.Fatal(err)
	}
	for i, err := range b.refBad {
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	ps := b.pass(passTimed)
	if ps.failed != 0 {
		t.Fatalf("clean pass: %d of %d ops failed: %v", ps.failed, ps.ops, ps.firstErr)
	}
	return b
}

// TestMemoMissIsAFailure: a run-memo response that had to be simulated
// again — same bytes, but a memo miss — counts as a failed op.
func TestMemoMissIsAFailure(t *testing.T) {
	b := memoBench(t, 8)
	experiments.SetOptions(runner.Options{Parallelism: 1, CacheEntries: b.w.cache})
	ps := b.pass(passTimed)
	if ps.failed != ps.ops {
		t.Fatalf("after the memo was dropped %d of %d ops failed, want all", ps.failed, ps.ops)
	}
}

// TestCorruptResponseIsAFailure: one flipped byte in a response counts as
// a failed op.
func TestCorruptResponseIsAFailure(t *testing.T) {
	b := memoBench(t, 8)
	inner := b.srv.Handler()
	var h http.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		body := bytes.Clone(rec.Body.Bytes())
		body[len(body)/2] ^= 1
		w.WriteHeader(rec.Code)
		w.Write(body)
	})
	b.front.h.Store(&h)
	ps := b.pass(passTimed)
	if ps.failed != ps.ops {
		t.Fatalf("%d of %d corrupted ops failed, want all", ps.failed, ps.ops)
	}
}

// TestTracedReplay runs a traced pass over a few ops of every workload: the
// replay must render the response's bytes, and the exact counters must be
// those the workload promises.
func TestTracedReplay(t *testing.T) {
	cases := []struct {
		name   string
		ops    []int // indices into the seed-1 list
		counts map[string]float64
	}{
		{"run-memo", []int{0, 1, 2, 3}, map[string]float64{"runner.memo_hits_per_op": 1, "runner.simulated_per_op": 0}},
		{"run-store", nil, map[string]float64{"runner.store_hits_per_op": 1, "runner.simulated_per_op": 0}},
		{"studies-cold", nil, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := workloads(1)[c.name]
			switch {
			case c.name == "run-store":
				// Keep a working set larger than the memo bound.
			case c.name == "studies-cold":
				var cheap []op
				for _, o := range w.ops {
					switch o.route {
					case "fig12", "plane", "optimize", "fleet":
						cheap = append(cheap, o)
					}
				}
				w.ops = cheap
			default:
				var sub []op
				for _, i := range c.ops {
					sub = append(sub, w.ops[i])
				}
				w.ops = sub
			}
			tr := newTracer()
			b, err := newBench(w, t.TempDir(), tr)
			if err != nil {
				t.Fatal(err)
			}
			defer b.close()
			if err := b.setup(); err != nil {
				t.Fatal(err)
			}
			plain := b.pass(passTimed)
			traced := b.pass(passTraced)
			if plain.failed+traced.failed+tr.failed != 0 {
				t.Fatalf("failures: plain %d, traced %d, replay %d: %v %v %v",
					plain.failed, traced.failed, tr.failed, plain.firstErr, traced.firstErr, tr.firstErr)
			}
			m := tr.ledger([]passStats{plain}, []passStats{traced})
			for _, name := range ledgerNames {
				if _, ok := m[name]; !ok {
					t.Errorf("ledger lacks %s", name)
				}
			}
			for name, want := range c.counts {
				if got := m[name].Value; got != want {
					t.Errorf("%s = %v, want %v", name, got, want)
				}
			}
			if c.name == "run-store" && (m["store.save_ms"].Value <= 0 || m["store.written_kb_per_op"].Value <= 0) {
				t.Errorf("the set-up's store fill was not timed: save %v ms, %v KB per write",
					m["store.save_ms"].Value, m["store.written_kb_per_op"].Value)
			}
			if m["server.response_kb_per_op"].Value != m["report.kb_per_op"].Value {
				t.Errorf("response KB %v != rendered KB %v", m["server.response_kb_per_op"].Value, m["report.kb_per_op"].Value)
			}
		})
	}
}
