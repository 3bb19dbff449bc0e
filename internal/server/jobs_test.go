package server

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/memcentric/mcdla/internal/experiments"
	"github.com/memcentric/mcdla/internal/store"
)

// submitQuery is the canonical smoke submission: the same /v1/run point the
// CI serve-smoke job curls synchronously, so the job's stored result can be
// diffed byte-for-byte against run_vgge_mcdlab.golden.json.
const submitQuery = "/v1/jobs?path=/v1/run&net=VGG-E&design=MC-DLA(B)"

// newStoreServer builds a store-backed server with the background executor
// disabled, so tests step the queue deterministically via drainQueue.
func newStoreServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Parallelism: 4, CacheEntries: 64, Store: st, DisableExecutor: true, PollInterval: 20 * time.Millisecond})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.StatusCode, readAll(t, resp)
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func decodeRecord(t *testing.T, body []byte) store.JobRecord {
	t.Helper()
	var rec store.JobRecord
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatalf("response is not a job record: %v\n%s", err, body)
	}
	return rec
}

// TestSingleflightStampede is the stampede contract end-to-end: 100
// concurrent identical /v1/run requests cost exactly one simulation — the
// memo's singleflight collapses them — and every response is byte-identical.
func TestSingleflightStampede(t *testing.T) {
	ts := newTestServer(t)
	const n = 100
	bodies := make([][]byte, n)
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/run?net=AlexNet&design=DC-DLA")
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			bodies[i] = readAll(t, resp)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		if string(bodies[i]) != string(bodies[0]) {
			t.Fatalf("request %d returned different bytes", i)
		}
	}
	if st := experiments.EngineStats(); st.Simulated != 1 {
		t.Fatalf("stampede of %d identical requests ran %d simulations, want exactly 1 (stats %+v)", n, st.Simulated, st)
	}
}

func TestJobsRequireStore(t *testing.T) {
	ts := newTestServer(t)
	for _, probe := range []func() (int, []byte){
		func() (int, []byte) { return post(t, ts.URL+submitQuery) },
		func() (int, []byte) { return get(t, ts.URL+"/v1/jobs") },
		func() (int, []byte) { return get(t, ts.URL+"/v1/jobs/"+strings.Repeat("0", 64)) },
	} {
		status, body := probe()
		if status != http.StatusServiceUnavailable {
			t.Fatalf("store-less jobs API answered %d (%s), want 503", status, body)
		}
	}
}

// TestJobsSubmitGolden pins the raw submission response bytes for the CI
// serve-smoke job. The record is a pure function of the submission — a
// content-addressed id, the canonical query, no timestamps — so the fixture
// is byte-stable.
func TestJobsSubmitGolden(t *testing.T) {
	_, ts := newStoreServer(t, t.TempDir())
	status, body := post(t, ts.URL+submitQuery)
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d: %s", status, body)
	}
	goldenCompare(t, "jobs_submit.golden.json", body)
}

// TestJobsPollGolden pins the polled record after execution: state done plus
// the content hash of the rendered result, both deterministic.
func TestJobsPollGolden(t *testing.T) {
	s, ts := newStoreServer(t, t.TempDir())
	_, body := post(t, ts.URL+submitQuery)
	rec := decodeRecord(t, body)
	if n := s.jobs.drainQueue(context.Background()); n != 1 {
		t.Fatalf("drainQueue ran %d jobs, want 1", n)
	}
	status, polled := get(t, ts.URL+"/v1/jobs/"+rec.ID)
	if status != http.StatusOK {
		t.Fatalf("poll status = %d: %s", status, polled)
	}
	if got := decodeRecord(t, polled); got.State != store.JobDone || got.ResultHash == "" {
		t.Fatalf("polled record = %+v, want done with a result hash", got)
	}
	goldenCompare(t, "jobs_poll.golden.json", polled)
}

func goldenCompare(t *testing.T, name string, body []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
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

// TestJobSubmitIdempotent: identical submissions — including reordered query
// parameters — collapse onto one record, and resubmitting a finished job
// reports done without re-running anything.
func TestJobSubmitIdempotent(t *testing.T) {
	s, ts := newStoreServer(t, t.TempDir())
	_, body := post(t, ts.URL+submitQuery)
	first := decodeRecord(t, body)
	status, body := post(t, ts.URL+"/v1/jobs?design=MC-DLA(B)&net=VGG-E&path=/v1/run")
	if status != http.StatusOK {
		t.Fatalf("resubmission status = %d, want 200", status)
	}
	if again := decodeRecord(t, body); again.ID != first.ID {
		t.Fatalf("reordered submission forked a new job: %s vs %s", again.ID, first.ID)
	}
	if s.jobs.drainQueue(context.Background()) != 1 {
		t.Fatal("expected exactly one queued job")
	}
	status, body = post(t, ts.URL+submitQuery)
	if status != http.StatusOK {
		t.Fatalf("post-completion resubmission status = %d", status)
	}
	if rec := decodeRecord(t, body); rec.State != store.JobDone {
		t.Fatalf("resubmission state = %s, want done", rec.State)
	}
	if s.jobs.drainQueue(context.Background()) != 0 {
		t.Fatal("resubmission re-queued completed work")
	}
}

// TestJobResultMatchesSyncEndpoint is the dataflow invariant: the async
// result bytes are identical to the synchronous endpoint's response for the
// same query — same builder, same renderer, same bytes.
func TestJobResultMatchesSyncEndpoint(t *testing.T) {
	s, ts := newStoreServer(t, t.TempDir())
	_, body := post(t, ts.URL+submitQuery)
	rec := decodeRecord(t, body)

	// Before completion the result endpoint reports the record with 409.
	status, pending := get(t, ts.URL+"/v1/jobs/"+rec.ID+"/result")
	if status != http.StatusConflict {
		t.Fatalf("pending result status = %d (%s), want 409", status, pending)
	}

	s.jobs.drainQueue(context.Background())
	status, async := get(t, ts.URL+"/v1/jobs/"+rec.ID+"/result")
	if status != http.StatusOK {
		t.Fatalf("result status = %d: %s", status, async)
	}
	status, sync := get(t, ts.URL+"/v1/run?net=VGG-E&design=MC-DLA(B)")
	if status != http.StatusOK {
		t.Fatal("sync run failed")
	}
	if string(async) != string(sync) {
		t.Fatalf("async result diverged from the synchronous response:\nasync:\n%s\nsync:\n%s", async, sync)
	}
}

// TestJobFailureRecorded: a job whose builder rejects its parameters lands
// in failed with the error preserved, and its result endpoint answers 409.
func TestJobFailureRecorded(t *testing.T) {
	s, ts := newStoreServer(t, t.TempDir())
	_, body := post(t, ts.URL+"/v1/jobs?path=/v1/run&design=NOPE-DLA")
	rec := decodeRecord(t, body)
	if s.jobs.drainQueue(context.Background()) != 1 {
		t.Fatal("failing job was not executed")
	}
	_, polled := get(t, ts.URL+"/v1/jobs/"+rec.ID)
	got := decodeRecord(t, polled)
	if got.State != store.JobFailed || !strings.Contains(got.Error, "NOPE-DLA") {
		t.Fatalf("failed record = %+v, want failed naming the design", got)
	}
	if status, _ := get(t, ts.URL+"/v1/jobs/"+rec.ID+"/result"); status != http.StatusConflict {
		t.Fatalf("failed job's result status = %d, want 409", status)
	}
}

// TestJobSubmitRejectsBadParams: a query that cannot parse is refused at
// submission, naming the parameter, and leaves no record behind.
func TestJobSubmitRejectsBadParams(t *testing.T) {
	_, ts := newStoreServer(t, t.TempDir())
	status, body := post(t, ts.URL+"/v1/jobs?path=/v1/run&batch=banana")
	if status != http.StatusBadRequest || !strings.Contains(string(body), "batch") {
		t.Fatalf("status = %d body = %s, want 400 naming batch", status, body)
	}
	if _, list := get(t, ts.URL+"/v1/jobs"); strings.Contains(string(list), "banana") {
		t.Fatalf("rejected submission left a record: %s", list)
	}
	// An undeclared key would queue a second id for identical work; a job
	// renders the report, so timeline is undeclared here too.
	for _, key := range []string{"bogus", "timeline"} {
		status, body := post(t, ts.URL+"/v1/jobs?path=/v1/run&net=VGG-E&"+key+"=1")
		if status != http.StatusBadRequest || !strings.Contains(string(body), `unknown parameter \"`+key+`\"`) {
			t.Fatalf("status = %d body = %s, want 400 naming %s", status, body, key)
		}
	}
	if _, list := get(t, ts.URL+"/v1/jobs"); strings.Contains(string(list), "VGG-E") {
		t.Fatalf("rejected submission left a record: %s", list)
	}
}

func TestJobSubmitRejectsUnknownPath(t *testing.T) {
	_, ts := newStoreServer(t, t.TempDir())
	if status, _ := post(t, ts.URL+"/v1/jobs?path=/v1/networks"); status != http.StatusBadRequest {
		t.Fatalf("non-report path accepted: %d", status)
	}
	if status, _ := post(t, ts.URL+"/v1/jobs?path=/etc/passwd"); status != http.StatusBadRequest {
		t.Fatalf("arbitrary path accepted: %d", status)
	}
}

// TestJobsSurviveRestart is the in-process restart contract: a fresh server
// on the same store directory sees the finished record, serves the identical
// result bytes, and answers the equivalent synchronous request from the
// durable store with zero re-simulation.
func TestJobsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newStoreServer(t, dir)
	_, body := post(t, ts1.URL+submitQuery)
	rec := decodeRecord(t, body)
	s1.jobs.drainQueue(context.Background())
	if st := experiments.EngineStats(); st.Simulated == 0 {
		t.Fatalf("first run simulated nothing: %+v", st)
	}
	_, want := get(t, ts1.URL+"/v1/jobs/"+rec.ID+"/result")
	ts1.Close()

	// "Restart": a new server (fresh engine, empty memo) on the same dir.
	_, ts2 := newStoreServer(t, dir)
	status, body := post(t, ts2.URL+submitQuery)
	if status != http.StatusOK {
		t.Fatalf("restarted submit status = %d, want 200 (already done)", status)
	}
	if got := decodeRecord(t, body); got.State != store.JobDone || got.ID != rec.ID {
		t.Fatalf("restarted record = %+v", got)
	}
	_, got := get(t, ts2.URL+"/v1/jobs/"+rec.ID+"/result")
	if string(got) != string(want) {
		t.Fatal("result bytes changed across restart")
	}
	// The synchronous endpoint for the same point reads through the store.
	if status, _ := get(t, ts2.URL+"/v1/run?net=VGG-E&design=MC-DLA(B)"); status != http.StatusOK {
		t.Fatal("sync run failed after restart")
	}
	st := experiments.EngineStats()
	if st.Simulated != 0 {
		t.Fatalf("restarted server re-simulated %d jobs (stats %+v)", st.Simulated, st)
	}
	if st.StoreHits == 0 {
		t.Fatalf("restarted server never hit the store: %+v", st)
	}
}

// TestWorkerDrainsSharedQueue models `mcdla serve -worker`: a jobs manager
// on its own store handle (a second process in production) claims and runs
// the job a server submitted, and the server observes the completion through
// the shared directory.
func TestWorkerDrainsSharedQueue(t *testing.T) {
	dir := t.TempDir()
	_, ts := newStoreServer(t, dir)
	_, body := post(t, ts.URL+submitQuery)
	rec := decodeRecord(t, body)

	wst, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	worker := newJobsManager(wst, 10*time.Millisecond)
	if n := worker.drainQueue(context.Background()); n != 1 {
		t.Fatalf("worker drained %d jobs, want 1", n)
	}
	// A second worker pass finds nothing: the claim protocol ran it once.
	if n := worker.drainQueue(context.Background()); n != 0 {
		t.Fatalf("worker re-ran %d completed jobs", n)
	}
	status, polled := get(t, ts.URL+"/v1/jobs/"+rec.ID)
	if status != http.StatusOK {
		t.Fatal("server cannot see worker-completed job")
	}
	if got := decodeRecord(t, polled); got.State != store.JobDone {
		t.Fatalf("server sees state %s, want done", got.State)
	}
	if status, _ := get(t, ts.URL+"/v1/jobs/"+rec.ID+"/result"); status != http.StatusOK {
		t.Fatal("server cannot serve worker-produced result")
	}
}

// TestSSEProgressStream: the events stream opens with a subscription
// comment, emits strictly monotonic seq-stamped progress events while the
// job's grid executes, and terminates with a done event carrying the stored
// result hash.
func TestSSEProgressStream(t *testing.T) {
	s, ts := newStoreServer(t, t.TempDir())
	// The optimizer smoke study fans out several simulations, so the stream
	// sees real progress ticks.
	submit := "/v1/jobs?path=/v1/optimize&designs=MC-DLA(B)&precisions=fp16&gbps=25&memnodes=4,8&dimms=32GB-LRDIMM,128GB-LRDIMM"
	_, body := post(t, ts.URL+submit)
	rec := decodeRecord(t, body)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + rec.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)

	// The subscription comment confirms the stream is live before the
	// executor starts, so no progress event can be missed.
	if !sc.Scan() || !strings.HasPrefix(sc.Text(), ": job "+rec.ID) {
		t.Fatalf("stream did not open with the subscription comment: %q", sc.Text())
	}
	drained := make(chan int, 1)
	go func() { drained <- s.jobs.drainQueue(context.Background()) }()

	type event struct {
		name string
		data struct {
			Seq        int             `json:"seq"`
			Done       int             `json:"done"`
			Total      int             `json:"total"`
			State      store.JobState  `json:"state"`
			ResultHash string          `json:"result_hash"`
			Err        json.RawMessage `json:"error"`
		}
	}
	var events []event
	var cur event
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur = event{name: strings.TrimPrefix(line, "event: ")}
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.data); err != nil {
				t.Fatalf("bad event payload %q: %v", line, err)
			}
			events = append(events, cur)
		}
		if len(events) > 0 && events[len(events)-1].name != "progress" {
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n := <-drained; n != 1 {
		t.Fatalf("drained %d jobs, want 1", n)
	}

	if len(events) < 2 {
		t.Fatalf("stream carried %d events, want progress + terminal", len(events))
	}
	for i, ev := range events {
		if ev.data.Seq != i+1 {
			t.Fatalf("event %d has seq %d — not monotonically increasing from 1", i, ev.data.Seq)
		}
		if i < len(events)-1 {
			if ev.name != "progress" {
				t.Fatalf("event %d = %q before the terminal event", i, ev.name)
			}
			if ev.data.Done < 1 || ev.data.Done > ev.data.Total {
				t.Fatalf("progress event %d = %d/%d out of range", i, ev.data.Done, ev.data.Total)
			}
			if i > 0 && ev.data.Done < events[i-1].data.Done {
				t.Fatalf("progress went backwards: %d after %d", ev.data.Done, events[i-1].data.Done)
			}
		}
	}
	final := events[len(events)-1]
	if final.name != "done" || final.data.State != store.JobDone {
		t.Fatalf("terminal event = %q/%s, want done", final.name, final.data.State)
	}
	_, polled := get(t, ts.URL+"/v1/jobs/"+rec.ID)
	if rec := decodeRecord(t, polled); final.data.ResultHash != rec.ResultHash || rec.ResultHash == "" {
		t.Fatalf("terminal event hash %q != record hash %q", final.data.ResultHash, rec.ResultHash)
	}
}

// TestSSEAlreadyTerminal: subscribing to a finished job streams exactly the
// terminal event — the restart-then-watch path.
func TestSSEAlreadyTerminal(t *testing.T) {
	s, ts := newStoreServer(t, t.TempDir())
	_, body := post(t, ts.URL+submitQuery)
	rec := decodeRecord(t, body)
	s.jobs.drainQueue(context.Background())

	resp, err := http.Get(ts.URL + "/v1/jobs/" + rec.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	stream := string(readAll(t, resp))
	if !strings.Contains(stream, "event: done") || !strings.Contains(stream, `"result_hash"`) {
		t.Fatalf("terminal-only stream = %q", stream)
	}
	if strings.Contains(stream, "event: progress") {
		t.Fatalf("finished job streamed progress: %q", stream)
	}
}

// TestBackgroundExecutorRunsJobs exercises the real executor loop (no
// manual drain): submission wakes it, the job completes, Close reclaims it.
func TestBackgroundExecutorRunsJobs(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Parallelism: 4, CacheEntries: 64, Store: st, PollInterval: 10 * time.Millisecond})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, body := post(t, ts.URL+submitQuery)
	rec := decodeRecord(t, body)
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, polled := get(t, ts.URL+"/v1/jobs/"+rec.ID)
		if got := decodeRecord(t, polled); got.State.Terminal() {
			if got.State != store.JobDone {
				t.Fatalf("executor finished the job as %s: %s", got.State, got.Error)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("executor never finished the job")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestJobOnUnbuildableDesignFails: a submission whose design point cannot
// be built — MC-DLA(S) folds its rings for six links only — parses, so it
// is accepted, and the real executor then fails the job naming the
// parameter instead of taking the server down with it.
func TestJobOnUnbuildableDesignFails(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Parallelism: 4, CacheEntries: 64, Store: st, PollInterval: 10 * time.Millisecond})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, body := post(t, ts.URL+"/v1/jobs?path=/v1/run&design=MC-DLA(S)&links=4")
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d: %s", status, body)
	}
	rec := decodeRecord(t, body)
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, polled := get(t, ts.URL+"/v1/jobs/"+rec.ID)
		if got := decodeRecord(t, polled); got.State.Terminal() {
			if got.State != store.JobFailed || !strings.Contains(got.Error, "invalid links value") {
				t.Fatalf("job ended %s (%q), want failed naming links", got.State, got.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("executor never finished the job")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if status, body := get(t, ts.URL+"/healthz"); status != http.StatusOK {
		t.Fatalf("healthz after the failed job: status = %d: %s", status, body)
	}
}

// TestJobsList: the listing includes submitted jobs sorted by id.
func TestJobsList(t *testing.T) {
	_, ts := newStoreServer(t, t.TempDir())
	post(t, ts.URL+submitQuery)
	post(t, ts.URL+"/v1/jobs?path=/v1/run&net=AlexNet&design=DC-DLA")
	status, body := get(t, ts.URL+"/v1/jobs")
	if status != http.StatusOK {
		t.Fatalf("list status = %d", status)
	}
	var list struct {
		Jobs []store.JobRecord `json:"jobs"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 2 {
		t.Fatalf("list carries %d jobs, want 2", len(list.Jobs))
	}
	if list.Jobs[0].ID > list.Jobs[1].ID {
		t.Fatal("listing not sorted by id")
	}
}
