// Async job API: POST /v1/jobs turns any report endpoint into a durable,
// content-addressed job whose record and rendered result live in the shared
// store directory. Submitting is cheap and idempotent — the job id is the
// hash of (endpoint path, canonical query, format), so identical submissions
// collapse onto one record — and execution is decoupled from the submitting
// connection: clients poll GET /v1/jobs/{id}, stream progress over SSE from
// /v1/jobs/{id}/events, and fetch the rendered report from
// /v1/jobs/{id}/result. Jobs survive client disconnects and server restarts
// (the record and result are on disk), and any number of `mcdla serve
// -worker` processes on the same store directory pull pending jobs through
// the store's claim protocol, each job running exactly once.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"strings"
	"sync"
	"time"

	"github.com/memcentric/mcdla/internal/experiments"
	"github.com/memcentric/mcdla/internal/obs"
	"github.com/memcentric/mcdla/internal/report"
	"github.com/memcentric/mcdla/internal/runner"
	"github.com/memcentric/mcdla/internal/store"
)

// DefaultPollInterval is how often the executor rescans the store for
// pending jobs (submissions on this process wake it immediately; the poll
// picks up jobs submitted by other processes) and how often an SSE stream
// re-reads the record to notice completions by other processes.
const DefaultPollInterval = 250 * time.Millisecond

// sseEvent is one rendered server-sent event.
type sseEvent struct {
	Name string // "progress", "done" or "failed"
	Data string // JSON payload, seq-stamped
}

// jobsManager owns one process's view of the shared job queue: the executor
// loop that claims and runs jobs, and the SSE subscriber fan-out for
// progress streaming.
type jobsManager struct {
	st    *store.Store
	poll  time.Duration
	owner string

	mu      sync.Mutex
	current string                            // job id being executed (executor concurrency is 1)
	seq     map[string]int                    // per-job monotonic event sequence
	subs    map[string]map[chan sseEvent]bool // job id → SSE subscribers

	wake   chan struct{}
	cancel context.CancelFunc
	done   chan struct{}

	// Claim accounting for the worker loop, registered in the process obs
	// registry: claims counts every job this executor won, reclaims the
	// subset stolen from a provably dead owner, failures the jobs that
	// reached the failed terminal state here.
	claims, reclaims, failures *obs.Counter
}

func newJobsManager(st *store.Store, poll time.Duration) *jobsManager {
	if poll <= 0 {
		poll = DefaultPollInterval
	}
	r := obs.Default()
	return &jobsManager{
		st:    st,
		poll:  poll,
		owner: fmt.Sprintf("pid-%d", os.Getpid()),
		seq:   map[string]int{},
		subs:  map[string]map[chan sseEvent]bool{},
		wake:  make(chan struct{}, 1),
		claims: r.Counter("mcdla_worker_claims_total",
			"Async jobs claimed for execution by this process."),
		reclaims: r.Counter("mcdla_worker_reclaims_total",
			"Async jobs reclaimed from a stale (dead-owner) claim."),
		failures: r.Counter("mcdla_worker_failures_total",
			"Async jobs that reached the failed terminal state in this process."),
	}
}

// start launches the background executor loop.
func (m *jobsManager) start() {
	ctx, cancel := context.WithCancel(context.Background()) //mcdlalint:allow ctxflow -- executor lifecycle root: jobs outlive the submitting request and stop via m.cancel
	m.cancel = cancel
	m.done = make(chan struct{})
	go func() {
		defer close(m.done)
		m.loop(ctx)
	}()
}

// close stops the executor and waits for the in-flight job (if any) to
// finish its current simulation batch and unclaim.
func (m *jobsManager) close() {
	if m.cancel == nil {
		return
	}
	m.cancel()
	<-m.done
	m.cancel = nil
}

// loop drains the queue, then sleeps until a local submission wakes it or
// the poll interval elapses (picking up jobs submitted by other processes).
func (m *jobsManager) loop(ctx context.Context) {
	tick := time.NewTicker(m.poll)
	defer tick.Stop()
	for {
		// Heartbeat once per scan: any process on the store directory can
		// see this executor is alive (healthz's last-worker-heartbeat).
		m.st.Heartbeat(m.owner)
		m.drainQueue(ctx)
		select {
		case <-ctx.Done():
			return
		case <-m.wake:
		case <-tick.C:
		}
	}
}

// kick nudges the executor after a local submission without blocking.
func (m *jobsManager) kick() {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// drainQueue claims and executes runnable jobs until the queue is dry,
// returning how many it ran. Tests with DisableExecutor call it directly to
// step the queue deterministically.
func (m *jobsManager) drainQueue(ctx context.Context) int {
	n := 0
	for ctx.Err() == nil {
		rec, ok := m.st.ClaimNextPending(m.owner)
		if !ok {
			return n
		}
		m.claims.Inc()
		if rec.State == store.JobRunning {
			// A running record whose claim went stale: its executor died
			// mid-run and this process is taking the job over.
			m.reclaims.Inc()
		}
		m.execute(ctx, rec)
		n++
	}
	return n
}

// execute runs one claimed job to a terminal state: build the report through
// the endpoint's registered builder (the same code path as the synchronous
// handler, so the rendered bytes are identical), store the rendering as a
// content-addressed blob, and rewrite the record as done (or failed, with
// the error preserved for the poller).
func (m *jobsManager) execute(ctx context.Context, rec store.JobRecord) {
	defer m.st.Unclaim(rec.ID)
	rec.State = store.JobRunning
	rec.Error = ""
	m.st.PutJob(rec)

	m.mu.Lock()
	m.current = rec.ID
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		m.current = ""
		m.mu.Unlock()
	}()

	out, err := m.render(ctx, rec)
	if err == nil {
		var hash string
		if hash, err = m.st.PutBlob([]byte(out)); err == nil {
			rec.State, rec.ResultHash = store.JobDone, hash
		}
	}
	if err != nil {
		rec.State, rec.Error = store.JobFailed, err.Error()
		m.failures.Inc()
	}
	m.st.PutJob(rec)
	m.publishTerminal(rec)
}

// render produces the job's rendered report exactly as the synchronous
// endpoint would have.
func (m *jobsManager) render(ctx context.Context, rec store.JobRecord) (string, error) {
	c, ok := reportRoutes[rec.Path]
	if !ok {
		return "", fmt.Errorf("job names unknown endpoint %q", rec.Path)
	}
	format, err := report.ParseFormat(rec.Format)
	if err != nil {
		return "", err
	}
	q, err := url.ParseQuery(rec.Query)
	if err != nil {
		return "", err
	}
	args, err := c.Parse(q.Get, "")
	if err != nil {
		return "", err
	}
	rep, err := c.Build(ctx, args)
	if err != nil {
		return "", err
	}
	return report.Render(rep, format)
}

// dispatch is the experiments progress hook: runner updates emitted while a
// job executes become that job's SSE progress events. The executor runs one
// job at a time, so attribution by the current id is exact for job-driven
// grids; updates from concurrent synchronous requests are simply dropped
// when no job is running.
func (m *jobsManager) dispatch(u runner.Update) {
	m.mu.Lock()
	id := m.current
	m.mu.Unlock()
	if id == "" {
		return
	}
	m.publish(id, "progress", map[string]any{"done": u.Done, "total": u.Total})
}

// publish stamps the payload with the job's next sequence number and fans it
// out to subscribers. Sends never block the executor: a subscriber whose
// buffer is full misses the event and catches up from the record poll.
func (m *jobsManager) publish(id, name string, payload map[string]any) {
	m.mu.Lock()
	m.seq[id]++
	payload["seq"] = m.seq[id]
	data, _ := json.Marshal(payload)
	var chans []chan sseEvent
	//mcdlalint:allow maporder -- every subscriber receives the same event; fan-out order carries no information
	for ch := range m.subs[id] {
		chans = append(chans, ch)
	}
	m.mu.Unlock()
	ev := sseEvent{Name: name, Data: string(data)}
	for _, ch := range chans {
		select {
		case ch <- ev:
		default:
		}
	}
}

func (m *jobsManager) publishTerminal(rec store.JobRecord) {
	name, payload := terminalPayload(rec)
	m.publish(rec.ID, name, payload)
}

// terminalEvent synthesizes the final SSE event for a record that reached a
// terminal state (possibly in another process), keeping the stream's
// sequence monotonic.
func (m *jobsManager) terminalEvent(rec store.JobRecord) sseEvent {
	name, payload := terminalPayload(rec)
	m.mu.Lock()
	m.seq[rec.ID]++
	payload["seq"] = m.seq[rec.ID]
	m.mu.Unlock()
	data, _ := json.Marshal(payload)
	return sseEvent{Name: name, Data: string(data)}
}

// correlate stamps an event payload with the subscriber's request id and the
// job's content hash. Marshalled maps render with sorted keys, so the stream
// stays deterministic given the same ids.
func correlate(data, requestID, jobID string) string {
	var payload map[string]any
	if err := json.Unmarshal([]byte(data), &payload); err != nil {
		return data
	}
	payload["job"] = jobID
	if requestID != "" {
		payload["request_id"] = requestID
	}
	out, err := json.Marshal(payload)
	if err != nil {
		return data
	}
	return string(out)
}

func terminalPayload(rec store.JobRecord) (string, map[string]any) {
	payload := map[string]any{"state": rec.State}
	name := "done"
	if rec.State == store.JobFailed {
		name = "failed"
		payload["error"] = rec.Error
	} else {
		payload["result_hash"] = rec.ResultHash
	}
	return name, payload
}

func (m *jobsManager) subscribe(id string) chan sseEvent {
	ch := make(chan sseEvent, 256)
	m.mu.Lock()
	if m.subs[id] == nil {
		m.subs[id] = map[chan sseEvent]bool{}
	}
	m.subs[id][ch] = true
	m.mu.Unlock()
	return ch
}

func (m *jobsManager) unsubscribe(id string, ch chan sseEvent) {
	m.mu.Lock()
	delete(m.subs[id], ch)
	if len(m.subs[id]) == 0 {
		delete(m.subs, id)
	}
	m.mu.Unlock()
}

// ------------------------------------------------------------ HTTP handlers

// jobsRoot serves /v1/jobs: POST submits, GET lists.
func (s *Server) jobsRoot(w http.ResponseWriter, r *http.Request) {
	if s.jobs == nil {
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("jobs API disabled: serve was started without -store"))
		return
	}
	switch r.Method {
	case http.MethodPost:
		s.jobs.handleSubmit(w, r)
	case http.MethodGet, http.MethodHead:
		s.jobs.handleList(w, r)
	default:
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
	}
}

// jobByID serves /v1/jobs/{id}, /v1/jobs/{id}/events and
// /v1/jobs/{id}/result.
func (s *Server) jobByID(w http.ResponseWriter, r *http.Request) {
	if s.jobs == nil {
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("jobs API disabled: serve was started without -store"))
		return
	}
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	id, sub, _ := strings.Cut(strings.TrimPrefix(r.URL.Path, "/v1/jobs/"), "/")
	switch sub {
	case "":
		s.jobs.handleGet(w, r, id)
	case "events":
		s.jobs.serveEvents(w, r, id)
	case "result":
		s.jobs.handleResult(w, r, id)
	default:
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown jobs resource %q", sub))
	}
}

// handleSubmit derives the content-addressed job id from the submission and
// creates the record if it does not exist. Responses carry the durable
// record: 202 with a pending record for new work, 200 with the current
// record (possibly already done) for a resubmission — submitting is
// idempotent and never re-runs completed work.
func (m *jobsManager) handleSubmit(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	path := q.Get("path")
	if path == "" {
		path = "/v1/run"
	}
	c, ok := reportRoutes[path]
	if !ok {
		writeError(w, http.StatusBadRequest, fmt.Errorf("path %q is not an async-able report endpoint", path))
		return
	}
	// A query that cannot parse would only fail later in the executor;
	// reject it now, naming the parameter.
	if _, err := c.Parse(q.Get, ""); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	format, err := formatParam(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	inner := url.Values{}
	for k, vs := range q {
		if k == "path" || k == "format" {
			continue
		}
		inner[k] = vs
	}
	id, canonical, err := store.JobID(path, inner.Encode(), string(format))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if rec, ok := m.st.GetJob(id); ok {
		writeJSON(w, http.StatusOK, rec)
		return
	}
	rec := store.JobRecord{ID: id, Path: path, Query: canonical, Format: string(format), State: store.JobPending}
	if err := m.st.PutJob(rec); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	m.kick()
	writeJSON(w, http.StatusAccepted, rec)
}

func (m *jobsManager) handleList(w http.ResponseWriter, _ *http.Request) {
	recs, err := m.st.ListJobs()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if recs == nil {
		recs = []store.JobRecord{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": recs})
}

func (m *jobsManager) handleGet(w http.ResponseWriter, _ *http.Request, id string) {
	rec, ok := m.st.GetJob(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// handleResult serves the job's rendered report, byte-identical to the
// synchronous endpoint's response for the same query. A job that has not
// reached done yet answers 409 with the record, so pollers can distinguish
// "not yet" from "never".
func (m *jobsManager) handleResult(w http.ResponseWriter, _ *http.Request, id string) {
	rec, ok := m.st.GetJob(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
		return
	}
	if rec.State != store.JobDone {
		writeJSON(w, http.StatusConflict, rec)
		return
	}
	blob, ok := m.st.GetBlob(rec.ResultHash)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("result blob %s missing or corrupted", rec.ResultHash))
		return
	}
	format, err := report.ParseFormat(rec.Format)
	if err != nil {
		format = report.FormatJSON
	}
	w.Header().Set("Content-Type", contentType(format))
	w.Write(blob)
}

// serveEvents streams a job's progress as server-sent events: a comment
// line confirming the subscription, then seq-stamped `progress` events while
// the job's grid executes, terminated by one `done` (carrying the result
// hash) or `failed` event. The record is re-read on the poll interval so a
// completion by another process (a -worker sharing the store) still
// terminates the stream.
func (m *jobsManager) serveEvents(w http.ResponseWriter, r *http.Request, id string) {
	if _, ok := m.st.GetJob(id); !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported by this connection"))
		return
	}
	// Subscribe before the comment that promises a live stream: a client
	// that starts the job on reading it must not lose the first events.
	ch := m.subscribe(id)
	defer m.unsubscribe(id, ch)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, ": job %s\n\n", id)
	fl.Flush()

	// Every event is stamped with the subscriber's request id and the job's
	// content hash, so log lines, metrics and SSE streams join on one key.
	rid := requestID(r.Context())
	send := func(ev sseEvent) {
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Name, correlate(ev.Data, rid, id))
		fl.Flush()
	}
	// finished ends the stream once the record is terminal (possibly set by
	// another process). Events a local executor already queued go out
	// first, and its own terminal event is used when it is among them; a
	// job this process is still executing publishes its terminal event
	// itself.
	finished := func() bool {
		rec, ok := m.st.GetJob(id)
		if !ok || !rec.State.Terminal() || m.executing(id) {
			return false
		}
		for len(ch) > 0 { // this goroutine is the channel's only receiver
			ev := <-ch
			send(ev)
			if ev.Name != "progress" {
				return true
			}
		}
		send(m.terminalEvent(rec))
		return true
	}
	if finished() {
		return
	}
	tick := time.NewTicker(m.poll)
	defer tick.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev := <-ch:
			send(ev)
			if ev.Name != "progress" {
				return
			}
		case <-tick.C:
			if finished() {
				return
			}
		}
	}
}

// executing reports whether this process's executor is running job id.
func (m *jobsManager) executing(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.current == id
}

// RunWorker runs the job-executor loop without an HTTP listener: the
// process behind `mcdla serve -worker`, which shares a store directory with
// one or more serving processes and pulls pending jobs from it until ctx is
// cancelled. Workers share the durable result cache with every other
// process on the directory, so a simulation any of them ran is never
// repeated.
func RunWorker(ctx context.Context, opts Options) error {
	if opts.Store == nil {
		return fmt.Errorf("worker mode requires a result store")
	}
	experiments.SetOptions(runner.Options{
		Parallelism:  opts.Parallelism,
		CacheEntries: opts.CacheEntries,
		Store:        opts.Store,
	})
	m := newJobsManager(opts.Store, opts.PollInterval)
	experiments.SetProgress(m.dispatch)
	m.loop(ctx)
	return nil
}
