// Command mcdla regenerates the paper's tables and figures, runs ad-hoc
// simulations of the evaluated system design points, and serves the whole
// experiment suite over HTTP.
//
// Usage:
//
//	mcdla [-parallel N] [-quiet] [-format text|json|csv|md] [-store DIR] <subcommand> [flags]
//
// The grid-based experiment subcommands (fig2, fig11-fig14, headline, sens,
// scale, explore, plane, optimize, and their aggregation in all) fan their
// simulations across the internal/runner worker pool; -parallel bounds the workers
// (default GOMAXPROCS) and a progress line streams to stderr unless -quiet
// is set (plane fans out through runner.Fan, which reports no progress —
// its sweeps finish in well under a second). Output on stdout is
// byte-identical at every parallelism. The single-simulation and analytic
// subcommands (fig9, tab4, run, trace, networks, config) don't fan out and
// ignore -parallel.
//
// Every subcommand builds a typed report (internal/report) and renders it
// through the global -format flag: the default text format reproduces the
// paper-style tables byte-for-byte, while json, csv and md emit the same
// numbers for scripts and documents. `mcdla serve` exposes the same reports
// as a long-running HTTP API (internal/server) with a bounded cross-request
// simulation cache.
//
// The global -store DIR flag opens a durable, content-addressed result
// store (internal/store) under DIR: every simulation keyed by the canonical
// hash of its job lands on disk, so repeat runs — in this process or any
// later one sharing the directory — are read-through hits instead of
// recomputation. With -store, `mcdla serve` additionally exposes the async
// jobs API (POST /v1/jobs → id, poll /v1/jobs/{id}, stream
// /v1/jobs/{id}/events, fetch /v1/jobs/{id}/result); jobs are durable
// records in the store and survive client disconnects and server restarts.
// `mcdla serve -worker` runs a headless executor that drains the shared job
// queue, and `serve -exec=false` serves the API while leaving execution to
// such workers.
//
// Every experiment subcommand — its flags, their defaults and checks — is
// one entry of the internal/experiments command table, the same entry the
// HTTP service serves as /v1/<name>; `mcdla help` lists them. The CLI adds
// three commands of its own: trace (a Chrome trace of one iteration, taking
// run's flags plus -o FILE), serve (the HTTP API; flags -addr, -cache,
// -worker, -exec, -debug-addr; SIGINT/SIGTERM drain gracefully; with the
// global -store DIR the async /v1/jobs API and the shared job queue come
// online) and all (every table entry in paper order).
package main

import (
	"context"
	_ "expvar" // registers /debug/vars on the -debug-addr listener
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the -debug-addr listener
	"net/url"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/memcentric/mcdla/internal/experiments"
	"github.com/memcentric/mcdla/internal/report"
	"github.com/memcentric/mcdla/internal/runner"
	"github.com/memcentric/mcdla/internal/server"
	"github.com/memcentric/mcdla/internal/store"
	"github.com/memcentric/mcdla/internal/trace"
)

// outputFormat is the global -format selection; the zero default renders
// paper-style text.
var outputFormat = report.FormatText

// storeDir / resultStore hold the global -store selection: a durable,
// content-addressed result store shared by every subcommand in the process
// (and, through the directory, by other processes). `mcdla -store DIR all`
// pre-warms the store the HTTP service later reads through.
var (
	storeDir    string
	resultStore *store.Store
)

// quietMode mirrors the global -quiet flag for subcommands that gate
// telemetry output on it (serve's request log).
var quietMode bool

func main() {
	args, parallel, quiet, format, dir, err := globalFlags(os.Args[1:])
	if err == nil {
		outputFormat = format
		storeDir = dir
		quietMode = quiet
		ro := runner.Options{Parallelism: parallel}
		if dir != "" {
			if resultStore, err = store.Open(dir); err == nil {
				ro.Store = resultStore
			}
		}
		if err == nil {
			experiments.SetOptions(ro)
			if !quiet {
				experiments.SetProgress(progressLine)
			}
			// The one place the process mints a root context: Ctrl-C or
			// SIGTERM cancels every queued simulation beneath any
			// subcommand. The ctxflow analyzer bans fresh contexts
			// anywhere deeper.
			ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
			err = run(ctx, args)
			stop()
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcdla:", err)
		os.Exit(1)
	}
}

// globalFlags extracts -parallel/-quiet/-format from anywhere in the
// argument list so both `mcdla -parallel 8 all` and `mcdla all -parallel 8`
// work; everything else passes through to the subcommand dispatch.
func globalFlags(args []string) (rest []string, parallel int, quiet bool, format report.Format, storeDir string, err error) {
	parallel = runtime.GOMAXPROCS(0)
	format = report.FormatText
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case a == "-parallel" || a == "--parallel":
			i++
			if i >= len(args) {
				return nil, 0, false, "", "", fmt.Errorf("-parallel needs a worker count")
			}
			if parallel, err = strconv.Atoi(args[i]); err != nil || parallel < 1 {
				return nil, 0, false, "", "", fmt.Errorf("bad -parallel value %q (want a count ≥ 1)", args[i])
			}
		case strings.HasPrefix(a, "-parallel=") || strings.HasPrefix(a, "--parallel="):
			v := a[strings.Index(a, "=")+1:]
			if parallel, err = strconv.Atoi(v); err != nil || parallel < 1 {
				return nil, 0, false, "", "", fmt.Errorf("bad -parallel value %q (want a count ≥ 1)", v)
			}
		case a == "-format" || a == "--format":
			i++
			if i >= len(args) {
				return nil, 0, false, "", "", fmt.Errorf("-format needs a value (text, json, csv or md)")
			}
			if format, err = report.ParseFormat(args[i]); err != nil {
				return nil, 0, false, "", "", fmt.Errorf("bad -format value: %v", err)
			}
		case strings.HasPrefix(a, "-format=") || strings.HasPrefix(a, "--format="):
			v := a[strings.Index(a, "=")+1:]
			if format, err = report.ParseFormat(v); err != nil {
				return nil, 0, false, "", "", fmt.Errorf("bad -format value: %v", err)
			}
		case a == "-store" || a == "--store":
			i++
			if i >= len(args) {
				return nil, 0, false, "", "", fmt.Errorf("-store needs a directory")
			}
			storeDir = args[i]
		case strings.HasPrefix(a, "-store=") || strings.HasPrefix(a, "--store="):
			storeDir = a[strings.Index(a, "=")+1:]
		case a == "-quiet" || a == "--quiet":
			quiet = true
		default:
			rest = append(rest, a)
		}
	}
	return rest, parallel, quiet, format, storeDir, nil
}

// emit renders a report in the globally selected format onto stdout.
func emit(r *report.Report) error {
	out, err := report.Render(r, outputFormat)
	if err != nil {
		return err
	}
	fmt.Print(out)
	return nil
}

// progressLine streams grid progress to stderr on a single rewritten line,
// clearing it once the grid lands so stdout tables render untouched.
func progressLine(u runner.Update) {
	if u.Err != nil {
		fmt.Fprintf(os.Stderr, "\r%-72s\n", fmt.Sprintf("[%d/%d] %s × %s: %v", u.Done, u.Total, u.Job.Design.Name, u.Job.Workload, u.Err))
		return
	}
	if u.Done == u.Total {
		fmt.Fprintf(os.Stderr, "\r%72s\r", "")
		return
	}
	fmt.Fprintf(os.Stderr, "\r%-72s", fmt.Sprintf("[%d/%d] %s × %s", u.Done, u.Total, u.Job.Design.Name, u.Job.Workload))
}

func run(ctx context.Context, args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing subcommand")
	}
	name, rest := args[0], args[1:]
	switch name {
	case "serve":
		return runServe(ctx, rest)
	case "trace":
		return runTrace(rest)
	case "all":
		return runAll(ctx)
	case "help", "-h", "--help":
		usage()
		return nil
	}
	c := experiments.Lookup(name)
	if c == nil {
		usage()
		return fmt.Errorf("unknown subcommand %q", name)
	}
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	var timeline string
	if c.Timeline != nil {
		fs.StringVar(&timeline, "timeline", "", "also write a Perfetto-loadable Chrome trace of the simulation to FILE")
	}
	q, err := flagValues(fs, c, rest)
	if err != nil {
		return err
	}
	a, err := parseArgs(c, q)
	if err != nil {
		return err
	}
	if timeline != "" {
		t, err := c.Timeline(ctx, a)
		if err != nil {
			return err
		}
		if err := writeTimeline(timeline, t); err != nil {
			return err
		}
	}
	rep, err := c.Build(ctx, a)
	if err != nil {
		return err
	}
	return emit(rep)
}

// runAll runs every table entry's `all` invocations in paper order.
func runAll(ctx context.Context) error {
	for _, c := range experiments.Commands() {
		if c.All == nil {
			continue
		}
		// The banner keeps the text stream navigable; structured formats
		// concatenate clean documents instead.
		if outputFormat == report.FormatText {
			fmt.Printf("\n================ %s ================\n", c.Name)
		}
		for _, inv := range c.All {
			q, err := url.ParseQuery(inv)
			if err != nil {
				return err
			}
			a, err := parseArgs(c, q)
			if err != nil {
				return err
			}
			rep, err := c.Build(ctx, a)
			if err != nil {
				return err
			}
			if err := emit(rep); err != nil {
				return err
			}
		}
	}
	return nil
}

// flagValues registers c's parameters on fs — one flag per spelling — and
// parses args, returning the flags the user set in query form, under their
// own spellings.
func flagValues(fs *flag.FlagSet, c *experiments.Command, args []string) (url.Values, error) {
	q := url.Values{}
	for _, p := range c.Params {
		for _, name := range []string{p.Name, p.Alias} {
			if name != "" {
				fs.Var(rawFlag{q: q, name: name, def: p.Default, isBool: p.Bool}, name, p.Doc)
			}
		}
	}
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return q, nil
}

// parseArgs checks the flag values through the table, first reading each
// file-valued flag (fleet -trace FILE) into the text HTTP takes inline.
func parseArgs(c *experiments.Command, q url.Values) (experiments.Args, error) {
	for _, p := range c.Params {
		if path := q.Get(p.Name); p.File && path != "" {
			data, err := os.ReadFile(path)
			if err != nil {
				return experiments.Args{}, err
			}
			q.Set(p.Name, string(data))
		}
	}
	return c.Parse(q.Get, "-")
}

// rawFlag records a flag's raw value for the table to check.
type rawFlag struct {
	q         url.Values
	name, def string
	isBool    bool
}

func (f rawFlag) String() string     { return f.def }
func (f rawFlag) Set(v string) error { f.q.Set(f.name, v); return nil }
func (f rawFlag) IsBoolFlag() bool   { return f.isBool }

// writeTimeline serializes a timeline to path in Chrome trace-event JSON.
func writeTimeline(path string, t *trace.Timeline) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runServe starts the long-running HTTP API over the experiment suite.
// SIGINT/SIGTERM stop accepting connections and drain in-flight requests
// through the server's graceful shutdown instead of killing them mid-reply.
//
// With the global -store flag the server reads and writes the durable
// result store and exposes the async jobs API (/v1/jobs). -worker turns the
// process into a headless executor that only drains the shared job queue;
// -exec=false serves the API without executing jobs locally, leaving the
// queue to dedicated workers.
func runServe(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	cache := fs.Int("cache", server.DefaultCacheEntries, "cross-request simulation cache bound (LRU entries, 0 = unbounded)")
	worker := fs.Bool("worker", false, "run as a headless job executor on the shared -store queue (no HTTP listener)")
	exec := fs.Bool("exec", true, "execute queued jobs in this process (set -exec=false to leave the queue to -worker processes)")
	debugAddr := fs.String("debug-addr", "", "separate listener for /debug/pprof and /debug/vars (empty: disabled)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *debugAddr != "" {
		// pprof and expvar register themselves on http.DefaultServeMux via
		// the blank imports above; the debug listener serves only that mux,
		// so profiles never ride the public API address. Best-effort: a
		// failed debug listener logs and the service keeps running.
		dbg := &http.Server{Addr: *debugAddr, Handler: http.DefaultServeMux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			fmt.Fprintf(os.Stderr, "mcdla serve: debug listener (pprof, expvar) on %s\n", *debugAddr)
			if err := dbg.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "mcdla serve: debug listener: %v\n", err)
			}
		}()
		defer dbg.Close()
	}
	opts := server.Options{
		Parallelism:     experiments.Parallelism(),
		CacheEntries:    *cache,
		Store:           resultStore,
		DisableExecutor: !*exec,
	}
	if !quietMode {
		opts.Logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	if *worker {
		if resultStore == nil {
			return fmt.Errorf("serve -worker requires the global -store DIR flag")
		}
		fmt.Fprintf(os.Stderr, "mcdla serve: worker draining job queue in %s\n", storeDir)
		err := server.RunWorker(ctx, opts)
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "mcdla serve: signal received, worker stopped")
		}
		return err
	}
	srv := server.New(opts)
	if resultStore != nil {
		fmt.Fprintf(os.Stderr, "mcdla serve: listening on %s (cache bound %d entries, store %s)\n", *addr, *cache, storeDir)
	} else {
		fmt.Fprintf(os.Stderr, "mcdla serve: listening on %s (cache bound %d entries)\n", *addr, *cache)
	}
	err := srv.Serve(ctx, *addr)
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "mcdla serve: signal received, drained in-flight requests")
	}
	return err
}

// runTrace writes a chrome://tracing timeline of one iteration of run's
// design point to -o and reports a one-line summary.
func runTrace(args []string) error {
	c := experiments.Lookup("run")
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	out := fs.String("o", "trace.json", "output file (chrome://tracing format)")
	q, err := flagValues(fs, c, args)
	if err != nil {
		return err
	}
	a, err := parseArgs(c, q)
	if err != nil {
		return err
	}
	tr := &trace.Log{}
	r, err := experiments.TraceRun(experiments.RunPoint(a), tr)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := tr.WriteChrome(f); err != nil {
		return err
	}
	return emit(&report.Report{
		Name: "trace",
		Sections: []report.Section{{
			KVs: []report.KV{{Key: "summary", Text: fmt.Sprintf("wrote %s: %d spans over %v (compute covers %.0f%% of the iteration)",
				*out, len(tr.Spans), r.IterationTime, 100*tr.CriticalPathShare())}},
		}},
	})
}

func usage() {
	fmt.Fprint(os.Stderr, `mcdla — memory-centric deep-learning system simulator (MICRO-51 reproduction)

usage: mcdla [-parallel N] [-quiet] [-format F] [-store DIR] <subcommand> [flags]

global flags:
  -parallel N   worker goroutines for experiment grids (default GOMAXPROCS)
  -quiet        suppress the stderr progress line
  -format F     output format: text (default), json, csv, md
  -store DIR    durable content-addressed result store; repeat runs on the
                same store are disk hits, and serve gains the async
                /v1/jobs API backed by the same directory

subcommands:
`)
	for _, c := range experiments.Commands() {
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", c.Name, c.Doc)
		var flags []string
		for _, p := range c.Params {
			f := "-" + p.Name
			if p.Alias != "" {
				f += "|-" + p.Alias
			}
			switch {
			case p.File:
				f += " FILE"
			case p.Default != "":
				f += " " + p.Default
			case !p.Bool:
				f += " ..."
			}
			flags = append(flags, "["+f+"]")
		}
		if c.Timeline != nil {
			flags = append(flags, "[-timeline FILE]")
		}
		const indent = "              "
		line := indent
		for _, f := range flags {
			if len(line)+len(f) > 78 {
				fmt.Fprintln(os.Stderr, line)
				line = indent
			}
			line += " " + f
		}
		if len(flags) > 0 {
			fmt.Fprintln(os.Stderr, line)
		}
	}
	fmt.Fprint(os.Stderr, `  trace        chrome://tracing timeline of one iteration: run's flags plus [-o trace.json]
  serve        HTTP API over the experiment suite: [-addr :8080] [-cache N]
               [-worker] [-exec=false] [-debug-addr :6060]; with -store the
               async /v1/jobs API, -worker drains the shared queue headlessly
  all          every subcommand above that regenerates the paper, in order
`)
}
