// Package server exposes the simulator as a long-running HTTP service:
// every command of the experiments table becomes a /v1/<name> endpoint
// whose query parameters are the command's flags, parsed and checked by the
// same table entry the CLI uses, with results rendered through the typed report layer as JSON by default or any other
// report format on request (?format=text|csv|md).
//
// Requests fan out through the shared experiments engine — the same bounded
// worker pool the CLI uses — and its memo cache is promoted to a
// cross-request LRU, so repeated design points are served without
// re-simulation; /healthz exposes the hit/miss accounting and /v1/networks
// the workload inventory for discovery.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"github.com/memcentric/mcdla/internal/dnn"
	"github.com/memcentric/mcdla/internal/experiments"
	"github.com/memcentric/mcdla/internal/obs"
	"github.com/memcentric/mcdla/internal/report"
	"github.com/memcentric/mcdla/internal/runner"
	"github.com/memcentric/mcdla/internal/store"
)

// DefaultCacheEntries is the serve default for the cross-request LRU bound:
// generous enough to hold the full paper evaluation plane many times over,
// small enough that a long-lived service cannot grow without bound.
const DefaultCacheEntries = 4096

// Options configures the service.
type Options struct {
	// Parallelism bounds the shared engine's workers (≤ 0: GOMAXPROCS).
	Parallelism int
	// CacheEntries bounds the cross-request simulation cache (0: unbounded).
	CacheEntries int
	// Store, when non-nil, plugs a durable result plane under the memo
	// cache (simulations survive restarts and are shared across processes)
	// and enables the async jobs API on /v1/jobs.
	Store *store.Store
	// DisableExecutor keeps the background job executor from starting; jobs
	// can still be submitted and are run by -worker processes (or, in
	// tests, by stepping the queue directly).
	DisableExecutor bool
	// PollInterval overrides how often the executor and SSE streams rescan
	// the store (≤ 0: DefaultPollInterval).
	PollInterval time.Duration
	// Logger, when non-nil, receives one structured line per request
	// (request id, method, path, status, latency). Nil disables request
	// logging — the default for tests and `serve -quiet`.
	Logger *slog.Logger
}

// Server is the HTTP façade over the experiment suite. Build one with New.
type Server struct {
	mux     *http.ServeMux
	start   time.Time
	jobs    *jobsManager
	store   *store.Store
	metrics *serverMetrics
	logger  *slog.Logger
}

// New configures the shared experiments engine for cross-request use (LRU
// cache bound, no stderr progress stream) and builds the route table.
//
// The engine is process-global state owned by the experiments package —
// there is exactly one simulation pool and one cache per process, shared
// with any CLI-style callers. Constructing a second Server (or calling
// experiments.SetOptions afterwards) reconfigures that
// shared engine for everyone and resets its cache accounting; run one
// Server per process.
func New(opts Options) *Server {
	ro := runner.Options{Parallelism: opts.Parallelism, CacheEntries: opts.CacheEntries}
	if opts.Store != nil {
		// Guarded assignment: a plain `ro.Store = opts.Store` would wrap a
		// nil *store.Store into a non-nil interface and the engine would
		// call through it.
		ro.Store = opts.Store
	}
	experiments.SetOptions(ro)
	experiments.SetProgress(nil)
	s := &Server{mux: http.NewServeMux(), start: time.Now(), logger: opts.Logger} //mcdlalint:allow nondeterminism -- server start stamp feeds the uptime telemetry field, never a report
	if opts.Store != nil {
		s.store = opts.Store
		s.jobs = newJobsManager(opts.Store, opts.PollInterval)
		experiments.SetProgress(s.jobs.dispatch)
		if !opts.DisableExecutor {
			s.jobs.start()
		}
	}
	s.metrics = newServerMetrics(obs.Default())
	registerProcessCollectors(obs.Default(), s)
	obs.Default().PublishExpvar("mcdla")
	s.routes()
	return s
}

// Handler returns the service's root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops the background job executor, waiting for an in-flight job to
// reach a terminal state and release its claim. The HTTP side is shut down
// by Serve itself; Close exists so tests and embedders reclaim the executor
// goroutine. It is a no-op without a store.
func (s *Server) Close() {
	if s.jobs != nil {
		s.jobs.close()
	}
}

// ShutdownGrace bounds how long Serve waits for in-flight requests to
// drain after its context is cancelled. A full optimizer search can run
// longer; its queued simulations stop being scheduled the moment the
// request context dies, so the grace period only needs to cover rendering.
const ShutdownGrace = 10 * time.Second

// ListenAndServe blocks serving the API on addr with no shutdown path;
// Serve is the graceful form the CLI uses.
func (s *Server) ListenAndServe(addr string) error {
	return s.Serve(context.Background(), addr) //mcdlalint:allow ctxflow -- documented no-shutdown entrypoint; Serve is the cancellable form
}

// Serve blocks serving the API on addr until ctx is cancelled (the CLI
// wires SIGINT/SIGTERM into it), then stops accepting connections and
// drains in-flight requests through http.Server.Shutdown under the
// ShutdownGrace timeout — previously the process just died mid-request.
func (s *Server) Serve(ctx context.Context, addr string) error {
	defer s.Close()
	srv := &http.Server{
		Addr:              addr,
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
		// Hand every request the serve context so long-running handlers
		// (the optimizer) abort their queued simulations on shutdown too,
		// not only on client disconnect.
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe() }()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		// The serve ctx is already dead here; the drain deliberately
		// detaches so Shutdown gets its full grace window.
		grace, cancel := context.WithTimeout(context.Background(), ShutdownGrace) //mcdlalint:allow ctxflow -- shutdown grace period must outlive the cancelled serve ctx
		defer cancel()
		if err := srv.Shutdown(grace); err != nil {
			return err
		}
		// ListenAndServe has returned http.ErrServerClosed by now; a clean
		// drain is not an error.
		<-done
		return nil
	}
}

// endpoints lists the routes the server owns for /v1 discovery; the index
// appends one entry per report route from the command table.
var endpoints = []struct{ Path, Doc string }{
	{"/healthz", "liveness, uptime, engine parallelism, cache hit/miss accounting, job-queue depth and worker heartbeat"},
	{"/metrics", "Prometheus text exposition of the process metrics registry (requests, cache, queue, workers)"},
	{"/v1", "this index"},
	{"/v1/networks", "workload inventory (Table III + transformers); ?format=text for the CLI shape"},
	{"/v1/jobs", "async job API over every report endpoint (requires -store): POST ?path=&format= plus the endpoint's params submits (content-addressed id), GET lists; /v1/jobs/{id} polls, …/{id}/events streams SSE progress, …/{id}/result serves the rendered report"},
}

// reportRoutes maps each report path onto its command. The registry drives
// both the synchronous routes and the async jobs API — a job names its
// endpoint by path and executes the same command, so the two paths cannot
// drift. /v1/networks answers with its own JSON inventory instead.
var reportRoutes = func() map[string]*experiments.Command {
	routes := map[string]*experiments.Command{}
	for _, c := range experiments.Commands() {
		if c.Name != "networks" {
			routes["/v1/"+c.Name] = c
		}
	}
	return routes
}()

func (s *Server) routes() {
	handle := func(path string, h http.HandlerFunc) {
		s.mux.Handle(path, s.instrument(path, h))
	}
	handle("/healthz", s.healthz)
	handle("/metrics", s.metricsHandler)
	handle("/v1", s.index)
	handle("/v1/networks", s.networks)
	handle("/v1/jobs", s.jobsRoot)
	handle("/v1/jobs/", s.jobByID)
	for path, c := range reportRoutes {
		handle(path, commandHandler(c))
	}
}

// ------------------------------------------------------- report endpoints

// commandHandler serves one command with format negotiation, and its
// timeline face on ?timeline=1. Undeclared keys and parse failures are the
// client's (400); build failures are too on parameterized commands, whose
// fallible inputs — workload, design, axis lists — arrive in the query
// string, while a parameterless command's failure is the server fault it
// must be (500).
func commandHandler(c *experiments.Command) http.HandlerFunc {
	buildStatus := http.StatusBadRequest
	if c.Fixed() {
		buildStatus = http.StatusInternalServerError
	}
	own := []string{"format"}
	if c.Timeline != nil {
		own = append(own, "timeline")
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
			return
		}
		q := r.URL.Query()
		if err := unknownParam(c, q, own...); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if c.Timeline != nil {
			if v := q.Get("timeline"); v != "" {
				want, err := strconv.ParseBool(v)
				if err != nil {
					writeError(w, http.StatusBadRequest, fmt.Errorf("invalid timeline value %q (want true or false)", v))
					return
				}
				if want {
					serveTimeline(w, r, c, q)
					return
				}
			}
		}
		format, err := formatParam(q)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		args, err := c.Parse(q.Get, "")
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		rep, err := c.Build(r.Context(), args)
		if err != nil {
			writeError(w, buildStatus, err)
			return
		}
		writeReport(w, rep, format)
	}
}

// unknownParam rejects the query keys that are neither a name or alias c
// declares nor one of the route's own keys, naming the first in sorted
// order: a misspelled parameter would otherwise be silently ignored and
// answer at its default.
func unknownParam(c *experiments.Command, q url.Values, own ...string) error {
	first, found := "", false
	for k := range q {
		if (!found || k < first) && !declares(c, k, own) {
			first, found = k, true
		}
	}
	if found {
		return fmt.Errorf("unknown parameter %q", first)
	}
	return nil
}

// declares reports whether key is one of c's parameter spellings or one of
// the route's own keys.
func declares(c *experiments.Command, key string, own []string) bool {
	for _, p := range c.Params {
		if key == p.Name || (p.Alias != "" && key == p.Alias) {
			return true
		}
	}
	for _, k := range own {
		if key == k {
			return true
		}
	}
	return false
}

// serveTimeline answers with the Chrome trace-event document of the
// command's timeline face — the bytes the CLI -timeline flag writes.
func serveTimeline(w http.ResponseWriter, r *http.Request, c *experiments.Command, q url.Values) {
	args, err := c.Parse(q.Get, "")
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	t, err := c.Timeline(r.Context(), args)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	t.WriteChrome(w)
}

func writeReport(w http.ResponseWriter, rep *report.Report, format report.Format) {
	out, err := report.Render(rep, format)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", contentType(format))
	fmt.Fprint(w, out)
}

// --------------------------------------------------------- fixed endpoints

func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	// The cache block is read from the obs registry — the same func
	// collectors /metrics scrapes — so the two endpoints cannot drift
	// (TestHealthzMatchesMetrics pins the cross-check).
	snap := obs.Default().Snapshot()
	count := func(name string) int64 {
		v, _ := snap[name].(float64)
		return int64(v)
	}
	body := map[string]any{
		"status": "ok",
		//mcdlalint:allow nondeterminism -- uptime is operational telemetry, not report output
		"uptime_seconds": time.Since(s.start).Seconds(),
		"parallelism":    experiments.Parallelism(),
		"cache": map[string]int64{
			"hits":       count("mcdla_cache_hits_total"),
			"misses":     count("mcdla_cache_misses_total"),
			"store_hits": count("mcdla_store_hits_total"),
			"simulated":  count("mcdla_simulated_total"),
		},
	}
	if s.store != nil {
		depth := s.queueDepth()
		body["queue"] = map[string]int{
			"pending": depth.Pending,
			"running": depth.Running,
			"failed":  depth.Failed,
		}
		if owner, age, ok := s.store.LastWorkerHeartbeat(); ok {
			body["last_worker"] = owner
			body["last_worker_heartbeat_age_seconds"] = age.Seconds()
		}
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) index(w http.ResponseWriter, r *http.Request) {
	type ep struct {
		Path string `json:"path"`
		Doc  string `json:"doc"`
	}
	out := struct {
		Service   string `json:"service"`
		Endpoints []ep   `json:"endpoints"`
	}{Service: "mcdla"}
	for _, e := range endpoints {
		out.Endpoints = append(out.Endpoints, ep(e))
	}
	for _, c := range experiments.Commands() {
		if path := "/v1/" + c.Name; reportRoutes[path] != nil {
			out.Endpoints = append(out.Endpoints, ep{path, routeDoc(c)})
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// routeDoc is a report route's index line: the command's doc, its query
// parameters, and its timeline face.
func routeDoc(c *experiments.Command) string {
	doc := c.Doc
	for i, p := range c.Params {
		sep := "&"
		if i == 0 {
			sep = ": ?"
		}
		doc += sep + p.Name + "="
	}
	if c.Timeline != nil {
		doc += " (&timeline=1: Chrome trace instead of the report)"
	}
	return doc
}

// networkInfo is one workload of the /v1/networks discovery inventory.
type networkInfo struct {
	Name        string `json:"name"`
	Family      string `json:"family"`
	Layers      int    `json:"layers"`
	PaperLayers int    `json:"paper_layers"`
	SeqLen      int    `json:"seqlen,omitempty"`
	WeightBytes int64  `json:"weight_bytes"`
	StashBytes  int64  `json:"stash_bytes"`
	ScoreBytes  int64  `json:"score_bytes,omitempty"`
	Summary     string `json:"summary"`
}

func (s *Server) networks(w http.ResponseWriter, r *http.Request) {
	// ?format= renders the CLI inventory shape; the default (and an
	// explicit json in any casing) is the typed discovery document.
	if v := r.URL.Query().Get("format"); v != "" {
		f, err := report.ParseFormat(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("invalid format parameter: %v", err))
			return
		}
		if f != report.FormatJSON {
			writeReport(w, experiments.NetworksReport(), f)
			return
		}
	}
	inventory := func(name, family string) networkInfo {
		g := dnn.MustBuild(name, 64)
		return networkInfo{
			Name:        name,
			Family:      family,
			Layers:      len(g.Layers),
			PaperLayers: dnn.PaperLayerCount(name),
			SeqLen:      g.SeqLen,
			WeightBytes: g.TotalWeightBytes(),
			StashBytes:  g.StashBytes(),
			ScoreBytes:  g.ScoreBytes(),
			Summary:     g.Summary(),
		}
	}
	var nets []networkInfo
	for _, name := range dnn.BenchmarkNames() {
		nets = append(nets, inventory(name, "table3"))
	}
	for _, name := range dnn.TransformerNames() {
		nets = append(nets, inventory(name, "transformer"))
	}
	writeJSON(w, http.StatusOK, map[string]any{"networks": nets})
}

// ----------------------------------------------------------------- helpers

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func contentType(f report.Format) string {
	switch f {
	case report.FormatJSON:
		return "application/json"
	case report.FormatCSV:
		return "text/csv; charset=utf-8"
	case report.FormatMarkdown:
		return "text/markdown; charset=utf-8"
	case report.FormatText:
		return "text/plain; charset=utf-8"
	}
	return "text/plain; charset=utf-8"
}

// formatParam resolves ?format=, defaulting to JSON — the service shape —
// rather than the CLI's text default.
func formatParam(q url.Values) (report.Format, error) {
	v := q.Get("format")
	if v == "" {
		return report.FormatJSON, nil
	}
	f, err := report.ParseFormat(v)
	if err != nil {
		return "", fmt.Errorf("invalid format parameter: %v", err)
	}
	return f, nil
}
