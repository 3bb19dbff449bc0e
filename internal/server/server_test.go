package server

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/memcentric/mcdla/internal/report"
)

// update rewrites the golden JSON fixture the CI serve-smoke job diffs the
// live server against:
//
//	go test ./internal/server -run TestRunEndpointGoldenJSON -update
var update = flag.Bool("update", false, "rewrite testdata/run_vgge_mcdlab.golden.json")

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(Options{Parallelism: 4, CacheEntries: 64}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// cliGolden reads a golden fixture of the CLI test harness; the server must
// agree with the CLI byte-for-byte through the shared report layer.
func cliGolden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "cmd", "mcdla", "testdata", name+".golden"))
	if err != nil {
		t.Fatalf("missing CLI fixture: %v", err)
	}
	return string(b)
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	status, body := get(t, ts.URL+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("healthz status = %d", status)
	}
	var h struct {
		Status      string  `json:"status"`
		Uptime      float64 `json:"uptime_seconds"`
		Parallelism int     `json:"parallelism"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Parallelism != 4 {
		t.Fatalf("healthz = %+v", h)
	}
}

// TestRunEndpointMatchesCLIGolden pins the acceptance criterion: the JSON
// answer for /v1/run?net=VGG-E&design=MC-DLA(B) carries exactly the numbers
// of the CLI's golden table — reconstructing the text rendering from the
// decoded JSON reproduces the fixture byte-for-byte.
func TestRunEndpointMatchesCLIGolden(t *testing.T) {
	ts := newTestServer(t)
	status, body := get(t, ts.URL+"/v1/run?net=VGG-E&design=MC-DLA(B)")
	if status != http.StatusOK {
		t.Fatalf("run status = %d: %s", status, body)
	}
	var rep report.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if got, want := report.Text(&rep), cliGolden(t, "run_default"); got != want {
		t.Fatalf("JSON-reconstructed text diverged from run_default.golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
	// And the typed values are real numbers, not re-parsed strings.
	kvs := rep.Sections[0].KVs
	if kvs[0].Key != "iteration_time" {
		t.Fatalf("first kv = %+v", kvs[0])
	}
	sec, ok := kvs[0].Value.(float64)
	if !ok || sec < 0.0511 || sec > 0.0512 {
		t.Fatalf("iteration_time value = %#v, want ~0.051141 s", kvs[0].Value)
	}
}

// TestRunEndpointTextFormat serves the CLI's exact text bytes on request.
func TestRunEndpointTextFormat(t *testing.T) {
	ts := newTestServer(t)
	status, body := get(t, ts.URL+"/v1/run?format=text")
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if got, want := string(body), cliGolden(t, "run_default"); got != want {
		t.Fatalf("text format diverged from run_default.golden:\ngot:\n%s", got)
	}
}

// TestRunEndpointGoldenJSON pins the raw response bytes for the CI smoke
// job, which curls the live server and diffs against this fixture.
func TestRunEndpointGoldenJSON(t *testing.T) {
	ts := newTestServer(t)
	status, body := get(t, ts.URL+"/v1/run?net=VGG-E&design=MC-DLA(B)")
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	path := filepath.Join("testdata", "run_vgge_mcdlab.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run with -update to create): %v", err)
	}
	if string(body) != string(want) {
		t.Fatalf("response diverged from %s:\ngot:\n%s\nwant:\n%s", path, body, want)
	}
}

// TestRunCacheHit covers the cross-request LRU: a repeated design point is
// served from the memo cache instead of re-simulating.
func TestRunCacheHit(t *testing.T) {
	ts := newTestServer(t)
	stats := func() (hits, misses int64) {
		_, body := get(t, ts.URL+"/healthz")
		var h struct {
			Cache struct{ Hits, Misses int64 } `json:"cache"`
		}
		if err := json.Unmarshal(body, &h); err != nil {
			t.Fatal(err)
		}
		return h.Cache.Hits, h.Cache.Misses
	}
	if status, body := get(t, ts.URL+"/v1/run?net=AlexNet&design=DC-DLA"); status != http.StatusOK {
		t.Fatalf("first run = %d: %s", status, body)
	}
	hits0, misses0 := stats()
	if status, _ := get(t, ts.URL+"/v1/run?net=AlexNet&design=DC-DLA"); status != http.StatusOK {
		t.Fatal("second run failed")
	}
	hits1, misses1 := stats()
	if misses1 != misses0 {
		t.Fatalf("repeat request re-simulated: misses %d -> %d", misses0, misses1)
	}
	if hits1 != hits0+1 {
		t.Fatalf("repeat request missed the cache: hits %d -> %d", hits0, hits1)
	}
}

func TestNetworksDiscovery(t *testing.T) {
	ts := newTestServer(t)
	status, body := get(t, ts.URL+"/v1/networks")
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	var inv struct {
		Networks []struct {
			Name   string `json:"name"`
			Family string `json:"family"`
			SeqLen int    `json:"seqlen"`
		} `json:"networks"`
	}
	if err := json.Unmarshal(body, &inv); err != nil {
		t.Fatal(err)
	}
	byName := map[string]string{}
	for _, n := range inv.Networks {
		byName[n.Name] = n.Family
	}
	if byName["VGG-E"] != "table3" || byName["BERT-Large"] != "transformer" {
		t.Fatalf("inventory = %v", byName)
	}
	// The text shape mirrors the CLI inventory.
	status, text := get(t, ts.URL+"/v1/networks?format=text")
	if status != http.StatusOK || string(text) != cliGolden(t, "networks") {
		t.Fatalf("networks text diverged (status %d):\n%s", status, text)
	}
}

func TestBadParamsNameTheParameter(t *testing.T) {
	ts := newTestServer(t)
	for url, wantSub := range map[string]string{
		"/v1/run?design=NOPE-DLA":  "NOPE-DLA",
		"/v1/run?batch=x":          "batch",
		"/v1/run?precision=fp8":    "precision",
		"/v1/run?strategy=zp":      "strategy",
		"/v1/plane?nodes=1,x":      "nodes",
		"/v1/explore?gbps=0":       "gbps",
		"/v1/transformer?seqlens=": "",
		"/v1/run?format=yaml":      "format",
		"/v1/run?gbps=NaN":         "gbps",
		"/v1/run?gbps=Inf":         "gbps",
		"/v1/run?gbps=-5":          "gbps",
		"/v1/run?links=-3":         "links",
		"/v1/run?memnodes=-1":      "memnodes",
		"/v1/explore?gbps=25,NaN":  "gbps",
		"/v1/explore?gbps=Inf":     "gbps",
		// Design-point preconditions name the parameter as HTTP spells it,
		// not as the CLI flag.
		"/v1/run?design=MC-DLA(S)&links=4":   "invalid links value",
		"/v1/run?design=MC-DLA(S)&workers=4": "invalid workers value",
		"/v1/run?design=DC-DLA&memnodes=4":   "invalid memnodes value",
	} {
		status, body := get(t, ts.URL+url)
		if url == "/v1/transformer?seqlens=" {
			// An empty list parameter falls back to the default axis.
			if status != http.StatusOK {
				t.Fatalf("%s status = %d", url, status)
			}
			continue
		}
		if status != http.StatusBadRequest {
			t.Fatalf("%s status = %d, want 400 (%s)", url, status, body)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatalf("%s: non-JSON error body %s", url, body)
		}
		if !strings.Contains(e.Error, wantSub) {
			t.Fatalf("%s error %q does not name %q", url, e.Error, wantSub)
		}
	}
}

func TestIndexListsEndpoints(t *testing.T) {
	ts := newTestServer(t)
	status, body := get(t, ts.URL+"/v1")
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	for _, want := range []string{"/v1/run", "/v1/transformer", "/v1/plane", "/v1/explore", "/healthz"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("index missing %s:\n%s", want, body)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/run = %d, want 405", resp.StatusCode)
	}
}

// TestPlaneEndpointMatchesCLIGolden drives a full multi-section report
// (plane -compare shape) through HTTP text rendering.
func TestPlaneEndpointMatchesCLIGolden(t *testing.T) {
	ts := newTestServer(t)
	status, body := get(t, ts.URL+"/v1/plane?nodes=1,2&compare=true&format=text")
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if got, want := string(body), cliGolden(t, "plane_compare"); got != want {
		t.Fatalf("plane compare text diverged:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// optimizeSmokeQuery is the reduced study the CI serve-smoke job curls: one
// design family, two populations, fp16 only — four simulations.
const optimizeSmokeQuery = "/v1/optimize?designs=MC-DLA(B)&precisions=fp16&gbps=25&memnodes=4,8&dimms=32GB-LRDIMM,128GB-LRDIMM"

// TestOptimizeEndpointGoldenJSON pins the optimizer's raw response bytes
// for the CI smoke job, run_vgge_mcdlab-style.
func TestOptimizeEndpointGoldenJSON(t *testing.T) {
	ts := newTestServer(t)
	status, body := get(t, ts.URL+optimizeSmokeQuery)
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	path := filepath.Join("testdata", "optimize_mcdlab.golden.json")
	if *update {
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run with -update to create): %v", err)
	}
	if string(body) != string(want) {
		t.Fatalf("response diverged from %s:\ngot:\n%s\nwant:\n%s", path, body, want)
	}
}

// TestOptimizeSurrogateGoldenJSON pins the surrogate search's raw response
// bytes on the same reduced study for the CI smoke job. The 4-candidate
// space gives the halving driver a 2-simulation budget, so the fixture also
// pins the provenance column and the trailing predicted (unconfirmed)
// frontier rows.
func TestOptimizeSurrogateGoldenJSON(t *testing.T) {
	ts := newTestServer(t)
	status, body := get(t, ts.URL+optimizeSmokeQuery+"&surrogate=1")
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	path := filepath.Join("testdata", "optimize_surrogate.golden.json")
	if *update {
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run with -update to create): %v", err)
	}
	if string(body) != string(want) {
		t.Fatalf("response diverged from %s:\ngot:\n%s\nwant:\n%s", path, body, want)
	}
}

// TestOptimizeEndpointShape decodes the frontier table and checks every row
// carries a reproducible run recipe whose parameters the /v1/run endpoint
// accepts.
func TestOptimizeEndpointShape(t *testing.T) {
	ts := newTestServer(t)
	status, body := get(t, ts.URL+optimizeSmokeQuery+"&objective=perf-per-watt&search=greedy")
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	var rep report.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("response is not a report: %v", err)
	}
	tbl := rep.Sections[0].Table
	if tbl == nil || len(tbl.Rows) == 0 {
		t.Fatal("optimizer returned no frontier rows")
	}
	if got := tbl.Columns[len(tbl.Columns)-1]; got != "recipe" {
		t.Fatalf("last column = %q, want recipe", got)
	}
	for _, row := range tbl.Rows {
		if !strings.HasPrefix(row[len(row)-1].Text, "mcdla run ") {
			t.Fatalf("recipe cell %q is not a run invocation", row[len(row)-1].Text)
		}
	}
}

// TestOptimizeBadParams: parameter failures are 400s naming the parameter.
func TestOptimizeBadParams(t *testing.T) {
	ts := newTestServer(t)
	for _, c := range []struct{ query, wantIn string }{
		{"/v1/optimize?objective=latency", "objective"},
		{"/v1/optimize?search=annealing", "search"},
		{"/v1/optimize?surrogate=maybe", "surrogate"},
		{"/v1/optimize?max-cost=cheap", "max-cost"},
		{"/v1/optimize?compress=maybe", "compress"},
		{"/v1/optimize?memnodes=0", "memnodes"},
		{"/v1/optimize?designs=NV-DLA", "NV-DLA"},
		{"/v1/optimize?max-cost=NaN", "max-cost"},
		{"/v1/optimize?max-power=Inf", "max-power"},
		{"/v1/optimize?min-throughput=-1", "min-throughput"},
		{"/v1/optimize?gbps=25,NaN", "gbps"},
		{"/v1/optimize?gbps=-Inf", "gbps"},
		{"/v1/optimize?memnodes=-4", "memnodes"},
		{"/v1/optimize?designs=MC-DLA(S)&links=4", "invalid links value"},
	} {
		status, body := get(t, ts.URL+c.query)
		if status != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400", c.query, status)
		}
		if !strings.Contains(string(body), c.wantIn) {
			t.Fatalf("%s: error %s does not name %q", c.query, body, c.wantIn)
		}
	}
}

// TestRunEndpointDSEAxes: /v1/run accepts the optimizer's recipe axes and
// derives the same design the search simulated.
func TestRunEndpointDSEAxes(t *testing.T) {
	ts := newTestServer(t)
	status, body := get(t, ts.URL+"/v1/run?net=VGG-E&design=MC-DLA(B)&memnodes=4&dimm=32GB-LRDIMM&gbps=50")
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	if !strings.Contains(string(body), "iteration_time") {
		t.Fatalf("run response missing iteration time: %s", body)
	}
	status, body = get(t, ts.URL+"/v1/run?net=VGG-E&design=MC-DLA(B)&compress=true")
	if status != http.StatusBadRequest {
		t.Fatalf("cDMA on a shared-link design: status = %d (%s), want 400", status, body)
	}
}

// TestRunEndpointFastLinks: a link bandwidth whose flows complete below the
// simulator clock's float64 resolution still answers instead of spinning.
func TestRunEndpointFastLinks(t *testing.T) {
	ts := newTestServer(t)
	for _, gbps := range []string{"1e12", "1e308"} {
		if status, body := get(t, ts.URL+"/v1/run?gbps="+gbps); status != http.StatusOK {
			t.Fatalf("gbps=%s: status = %d: %s", gbps, status, body)
		}
	}
}

// TestServeGracefulShutdown boots the real listener, parks a request on a
// slow endpoint, cancels the serve context, and expects the in-flight
// response to complete while the listener refuses new work.
func TestServeGracefulShutdown(t *testing.T) {
	s := New(Options{Parallelism: 2, CacheEntries: 16})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, addr) }()
	// Wait for the listener.
	var up bool
	for i := 0; i < 100 && !up; i++ {
		if resp, err := http.Get("http://" + addr + "/healthz"); err == nil {
			resp.Body.Close()
			up = true
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if !up {
		t.Fatal("server never came up")
	}

	// Park an in-flight request: the optimizer study is small but real.
	inflight := make(chan error, 1)
	go func() {
		resp, err := http.Get("http://" + addr + optimizeSmokeQuery)
		if err == nil {
			defer resp.Body.Close()
			if _, rerr := io.ReadAll(resp.Body); rerr != nil {
				err = rerr
			} else if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
		}
		inflight <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	if err := <-inflight; err != nil {
		t.Fatalf("in-flight request was not drained: %v", err)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v after graceful shutdown", err)
		}
	case <-time.After(ShutdownGrace + 5*time.Second):
		t.Fatal("Serve did not return after shutdown")
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

// TestFleetEndpointMatchesCLI pins surface parity for the fleet report: the
// text rendering of /v1/fleet with default parameters must be byte-identical
// to the CLI `mcdla fleet` golden fixture.
func TestFleetEndpointMatchesCLI(t *testing.T) {
	ts := newTestServer(t)
	status, body := get(t, ts.URL+"/v1/fleet?format=text")
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	if got, want := string(body), cliGolden(t, "fleet_default"); got != want {
		t.Fatalf("fleet endpoint diverged from the CLI fixture:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestFleetEndpointGoldenJSON pins the raw /v1/fleet response bytes for the
// CI serve-smoke diff, MC-DLA(B)-only cluster. Refresh with:
//
//	go test ./internal/server -run TestFleetEndpointGoldenJSON -update
func TestFleetEndpointGoldenJSON(t *testing.T) {
	ts := newTestServer(t)
	status, body := get(t, ts.URL+"/v1/fleet?designs=MC-DLA(B)&pods=2")
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	path := filepath.Join("testdata", "fleet_mcdlab.golden.json")
	if *update {
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run with -update to create): %v", err)
	}
	if string(body) != string(want) {
		t.Fatalf("response diverged from %s:\ngot:\n%s\nwant:\n%s", path, body, want)
	}
}

// TestFleetEndpointTraceParam drives an inline CSV trace through the query
// string: the same parser as the CLI -trace path, so a malformed trace
// errors with the offending line and field, and a valid one schedules.
func TestFleetEndpointTraceParam(t *testing.T) {
	ts := newTestServer(t)
	trace := "name,workload,arrival_s,iters,devices,batch,seqlen,precision,strategy,deadline_s\n" +
		"a,AlexNet,0,10,2,,,,,\n"
	status, body := get(t, ts.URL+"/v1/fleet?designs=DC-DLA&trace="+url.QueryEscape(trace))
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	var rep report.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Name != "fleet" {
		t.Fatalf("report name %q", rep.Name)
	}
}

// TestFleetEndpointErrors maps client mistakes to 400s that name the
// offending parameter or trace location.
func TestFleetEndpointErrors(t *testing.T) {
	ts := newTestServer(t)
	for _, tc := range []struct{ name, query, want string }{
		{"bad pods", "pods=0", "positive"},
		{"bad pods syntax", "pods=x", "pods"},
		{"bad jobs", "jobs=-1", "jobs"},
		{"unknown design", "designs=Z-DLA", "unknown design"},
		{"trace and jobs", "jobs=5&trace=x", "mutually exclusive"},
		{"bad trace", "trace=" + url.QueryEscape("name,workload\nx,y\n"), "fleet trace"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			status, body := get(t, ts.URL+"/v1/fleet?"+tc.query)
			if status != http.StatusBadRequest {
				t.Fatalf("status = %d: %s", status, body)
			}
			if !strings.Contains(string(body), tc.want) {
				t.Fatalf("error body %q missing %q", body, tc.want)
			}
		})
	}
}
