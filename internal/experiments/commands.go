package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/memcentric/mcdla/internal/core"
	"github.com/memcentric/mcdla/internal/dse"
	"github.com/memcentric/mcdla/internal/fleet"
	"github.com/memcentric/mcdla/internal/report"
	"github.com/memcentric/mcdla/internal/trace"
	"github.com/memcentric/mcdla/internal/train"
	"github.com/memcentric/mcdla/internal/units"
)

// Command is one experiment of the suite: the single definition behind the
// `mcdla <name>` subcommand, its flags, the /v1/<name> route, its query
// parameters and its place in `mcdla all`. Each front end derives its
// surface from the table, so a parameter's name, default and check live
// here and nowhere else.
type Command struct {
	Name   string
	Doc    string
	Params []Param
	// Build produces the command's report from parsed arguments.
	Build func(context.Context, Args) (*report.Report, error)
	// Timeline, when set, is the command's Chrome-trace face: the CLI's
	// -timeline FILE and the route's ?timeline=1.
	Timeline func(context.Context, Args) (*trace.Timeline, error)
	// All lists the command's invocations in `mcdla all`, as query strings
	// ("" runs the defaults); nil leaves the command out.
	All []string
}

// Param is one typed parameter: a flag on the CLI, a query parameter over
// HTTP.
type Param struct {
	Name string
	// Alias is a second spelling; when both are given the alias wins.
	Alias string
	// Default is the value an absent or empty parameter takes, in the
	// parameter's own spelling ("" leaves the zero value).
	Default string
	Doc     string
	// Bool marks a switch: a bare CLI flag means true.
	Bool bool
	// File marks a CLI value that names a file holding the parameter's
	// text; over HTTP the text arrives inline.
	File  bool
	parse func(name, raw string) (any, error)
}

// Args is one invocation's parsed parameters.
type Args struct {
	params []Param
	vals   []any
	// flag is the surface's parameter prefix Parse was given.
	flag string
}

// arg returns the parsed value of the named parameter (the zero T when it
// was absent and has no default). Asking for a name the command does not
// declare is a table bug.
func arg[T any](a Args, name string) T {
	for i, p := range a.params {
		if p.Name == name {
			v, _ := a.vals[i].(T)
			return v
		}
	}
	panic(fmt.Sprintf("experiments: no parameter %q", name))
}

// spell names a design point's rejected parameter the way Parse names a
// rejected value: as the caller's surface spells it.
func (a Args) spell(err error) error {
	var pe *core.ParamError
	if errors.As(err, &pe) {
		return errors.New(pe.Spell(a.flag))
	}
	return err
}

// Fixed reports whether the command takes no parameters, so a build
// failure cannot be the caller's fault.
func (c *Command) Fixed() bool { return len(c.Params) == 0 }

// Parse reads and checks c's parameters. get returns a parameter's raw
// value by spelling ("" when absent); flag is the surface's prefix for
// error messages — "-" on the CLI, "" over HTTP — so a rejected value is
// named as the caller spelled it.
func (c *Command) Parse(get func(string) string, flag string) (Args, error) {
	a := Args{params: c.Params, vals: make([]any, len(c.Params)), flag: flag}
	for i, p := range c.Params {
		name, raw := p.Name, get(p.Name)
		if p.Alias != "" {
			if v := get(p.Alias); v != "" {
				name, raw = p.Alias, v
			}
		}
		if raw == "" {
			raw = p.Default
		}
		if raw == "" {
			continue
		}
		v, err := p.parse(flag+name, raw)
		if err != nil {
			return Args{}, err
		}
		a.vals[i] = v
	}
	return a, nil
}

// Commands returns the table in `mcdla all` order.
func Commands() []*Command { return commands }

// Lookup returns the named command, or nil.
func Lookup(name string) *Command {
	for _, c := range commands {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// ------------------------------------------------------------ param kinds

func badValue(name, raw, want string) error {
	return fmt.Errorf("invalid %s value %q (want %s)", name, raw, want)
}

// count is a nonnegative integer; zero selects the command's own default.
// Both decimal and the CLI's historical Go-literal spellings parse.
func count(name, def, doc string) Param {
	return Param{Name: name, Default: def, Doc: doc, parse: func(name, raw string) (any, error) {
		n, err := strconv.Atoi(raw)
		if err != nil {
			var n64 int64
			n64, err = strconv.ParseInt(raw, 0, strconv.IntSize)
			n = int(n64)
		}
		if err != nil || n < 0 {
			return nil, badValue(name, raw, "a nonnegative integer")
		}
		return n, nil
	}}
}

// amount is a finite nonnegative real; zero selects the default.
func amount(name, def, doc string) Param {
	return Param{Name: name, Default: def, Doc: doc, parse: func(name, raw string) (any, error) {
		f, err := strconv.ParseFloat(raw, 64)
		if err != nil || f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, badValue(name, raw, "a finite nonnegative number")
		}
		return f, nil
	}}
}

func switchParam(name, doc string) Param {
	return Param{Name: name, Doc: doc, Bool: true, parse: func(name, raw string) (any, error) {
		b, err := strconv.ParseBool(raw)
		if err != nil {
			return nil, badValue(name, raw, "true or false")
		}
		return b, nil
	}}
}

func text(name, def, doc string) Param {
	return Param{Name: name, Default: def, Doc: doc, parse: textParse}
}

func texts(name, doc string) Param {
	return Param{Name: name, Doc: doc, parse: func(_, raw string) (any, error) { return strings.Split(raw, ","), nil }}
}

func counts(name, def, doc string) Param {
	return Param{Name: name, Default: def, Doc: doc, parse: func(name, raw string) (any, error) {
		return units.ParsePositiveInts(name, raw)
	}}
}

func amounts(name, def, doc string) Param {
	return Param{Name: name, Default: def, Doc: doc, parse: func(name, raw string) (any, error) {
		return units.ParsePositiveFloats(name, raw)
	}}
}

// choice is a parameter whose spellings a domain parser owns.
func choice[T any](name, def, doc string, parse func(string) (T, error)) Param {
	return Param{Name: name, Default: def, Doc: doc, parse: func(name, raw string) (any, error) {
		v, err := parse(raw)
		if err != nil {
			return nil, fmt.Errorf("invalid %s value: %v", name, err)
		}
		return v, nil
	}}
}

func strategyParam() Param {
	return choice("strategy", "dp", "parallelization strategy: dp or mp", train.ParseStrategy)
}

func workloadParam(doc string) Param {
	return Param{Name: "workload", Alias: "net", Default: "VGG-E", Doc: doc, parse: textParse}
}

func precisionsParam(doc string) Param {
	return choice("precisions", "", doc, train.ParsePrecisionList)
}

// --------------------------------------------------------------- the table

var commands = []*Command{
	{Name: "config", Doc: "Table II device, memory-node and design-point inventory", All: once,
		Build: func(context.Context, Args) (*report.Report, error) { return ConfigReport(), nil }},
	{Name: "networks", Doc: "Table III and transformer workload inventory", All: once,
		Build: func(context.Context, Args) (*report.Report, error) { return NetworksReport(), nil }},
	{Name: "fig2", Doc: "Figure 2: single-device execution time across accelerator generations", All: once,
		Build: func(ctx context.Context, _ Args) (*report.Report, error) {
			rows, err := Fig2(ctx)
			return reportOf(Fig2Report, rows, err)
		}},
	{Name: "fig9", Doc: "Figure 9: collective latency vs ring size", All: once,
		Build: func(context.Context, Args) (*report.Report, error) { return Fig9Report(Fig9()), nil }},
	{Name: "fig11", Doc: "Figure 11: latency breakdowns", Params: []Param{strategyParam()},
		All: []string{"strategy=dp", "strategy=mp"},
		Build: func(ctx context.Context, a Args) (*report.Report, error) {
			strategy := arg[train.Strategy](a, "strategy")
			rows, err := Fig11(ctx, strategy)
			if err != nil {
				return nil, err
			}
			return Fig11Report(rows, strategy), nil
		}},
	{Name: "fig12", Doc: "Figure 12: CPU memory bandwidth per socket", All: once,
		Build: func(ctx context.Context, _ Args) (*report.Report, error) {
			rows, err := Fig12(ctx)
			return reportOf(Fig12Report, rows, err)
		}},
	{Name: "fig13", Doc: "Figure 13: performance normalized to the DC-DLA(O) oracle", Params: []Param{strategyParam()},
		All: []string{"strategy=dp", "strategy=mp"},
		Build: func(ctx context.Context, a Args) (*report.Report, error) {
			strategy := arg[train.Strategy](a, "strategy")
			rows, speedups, err := Fig13(ctx, strategy)
			if err != nil {
				return nil, err
			}
			return Fig13Report(rows, speedups, strategy), nil
		}},
	{Name: "fig14", Doc: "Figure 14: batch-size sensitivity", All: once,
		Build: func(ctx context.Context, _ Args) (*report.Report, error) {
			rows, err := Fig14(ctx)
			return reportOf(Fig14Report, rows, err)
		}},
	{Name: "tab4", Doc: "Table IV: memory-node power", All: once,
		Build: func(context.Context, Args) (*report.Report, error) { return Table4Report(), nil }},
	{Name: "headline", Doc: "§V-B aggregate speedups", All: once,
		Build: func(ctx context.Context, _ Args) (*report.Report, error) {
			h, err := RunHeadline(ctx)
			return reportOf(HeadlineReport, h, err)
		}},
	{Name: "sens", Doc: "§V-B sensitivity sweep (gen4 / TPUv2 / DGX-2 / cDMA)", All: once,
		Build: func(ctx context.Context, _ Args) (*report.Report, error) {
			rows, err := Sensitivity(ctx)
			return reportOf(SensitivityReport, rows, err)
		}},
	{Name: "scale", Doc: "§V-D scalability", All: once,
		Build: func(ctx context.Context, _ Args) (*report.Report, error) {
			rows, err := Scalability(ctx)
			return reportOf(ScalabilityReport, rows, err)
		}},
	{Name: "explore", Doc: "§III-B link-technology sweep", All: once,
		Params: []Param{
			counts("links", "4,6,8,12", "device link counts"),
			amounts("gbps", "25,50,100", "per-link GB/s"),
		},
		Build: func(ctx context.Context, a Args) (*report.Report, error) {
			rows, err := Explore(ctx, arg[[]int](a, "links"), arg[[]float64](a, "gbps"))
			return reportOf(ExploreReport, rows, err)
		}},
	{Name: "transformer", Doc: "seqlen × precision × design study plus the attention-compression headline", All: once,
		Params: []Param{
			text("workload", "", "transformer workload (default: all)"),
			counts("seqlens", "", "sequence lengths (default: 128,256,512,1024)"),
			precisionsParam("precisions (default: fp16,mixed,fp32)"),
		},
		Build: buildTransformer},
	{Name: "plane", Doc: "§VI scale-out plane study on the event-driven plane engine", All: once,
		Params: []Param{
			workloadParam("benchmark"),
			counts("nodes", "1,2,4,8,16", "system-node counts"),
			switchParam("analytic", "use the retired first-order estimator instead of the event engine"),
			switchParam("compare", "table analytic vs event-driven MC-plane iteration times"),
		},
		Build: buildPlane,
		Timeline: func(ctx context.Context, a Args) (*trace.Timeline, error) {
			return planeTimeline(ctx, arg[string](a, "workload"), arg[[]int](a, "nodes"))
		}},
	{Name: "optimize", Doc: "cost/TCO design-space optimizer: Pareto frontier with run recipes", All: once,
		Params: []Param{
			choice("objective", "perf-per-dollar", "frontier ordering: perf-per-dollar, perf-per-watt, throughput, cost or energy", dse.ParseObjective),
			choice("search", "grid", "search driver: grid, greedy or surrogate", dse.ParseSearch),
			{Name: "surrogate", Doc: "shorthand for -search surrogate", Bool: true, parse: surrogateParse},
			amount("max-cost", "0", "bill-of-materials ceiling in USD (0: unbounded)"),
			amount("max-power", "0", "wall-power ceiling in watts (0: unbounded)"),
			amount("min-throughput", "0", "training-throughput floor in samples/s (0: unbounded)"),
			texts("workloads", "workloads (default: VGG-E)"),
			texts("designs", "design points (default: DC-DLA,MC-DLA(B))"),
			choice("strategies", "", "strategies (default: dp)", parseStrategies),
			counts("batches", "", "global batch sizes (default: 512)"),
			counts("seqlens", "", "sequence lengths (default: workload default)"),
			precisionsParam("precisions (default: fp16,mixed,fp32)"),
			counts("links", "", "device link counts (default: Table II N)"),
			amounts("gbps", "", "per-link GB/s (default: 25,50)"),
			counts("memnodes", "", "memory-node populations (default: 4,8)"),
			texts("dimms", "DIMM modules (default: 32GB-LRDIMM,128GB-LRDIMM)"),
			choice("compress", "both", "cDMA axis on the host designs: off, on or both", parseCompressAxis),
		},
		Build: buildOptimize},
	{Name: "fleet", Doc: "fleet-scale multi-job cluster simulation over iso-cost DC/HC/MC clusters", All: once,
		Params: []Param{
			{Name: "trace", Doc: "CSV or JSON job trace (default: the built-in 12-job trace)", File: true, parse: textParse},
			count("jobs", "0", "generate a deterministic synthetic trace of N jobs"),
			count("pods", strconv.Itoa(FleetPods), "iso-cost anchor: the budget buys this many pods of the priciest design"),
			texts("designs", "cluster designs (default: DC-DLA,HC-DLA,MC-DLA(B))"),
		},
		Build: func(ctx context.Context, a Args) (*report.Report, error) {
			results, err := fleetResults(ctx, a)
			return reportOf(FleetReport, results, err)
		},
		Timeline: func(ctx context.Context, a Args) (*trace.Timeline, error) {
			results, err := fleetResults(ctx, a)
			if err != nil {
				return nil, err
			}
			return fleet.Timeline(results), nil
		}},
	{Name: "run", Doc: "one simulation of a design point",
		Params: []Param{
			workloadParam("benchmark (Table III or transformer)"),
			text("design", "MC-DLA(B)", "system design point"),
			strategyParam(),
			count("batch", strconv.Itoa(Batch), "global batch size"),
			count("seqlen", "0", "sequence-length override (0: workload default)"),
			choice("precision", "fp16", "training precision: fp16, mixed or fp32", train.ParsePrecision),
			count("links", "0", "device link count override (0: Table II N=6)"),
			amount("gbps", "0", "per-link bandwidth override in GB/s (0: Table II B=25)"),
			count("memnodes", "0", "memory-node board count (0: one per device; MC designs)"),
			text("dimm", "", "memory-node DIMM module (default: Table II 128GB-LRDIMM; MC designs)"),
			switchParam("compress", "add a cDMA compressing DMA engine on the host virtualization path"),
			count("workers", "0", "device count (0: the paper's 8)"),
		},
		Build: func(ctx context.Context, a Args) (*report.Report, error) {
			p := RunPoint(a)
			d, err := p.DesignPoint()
			if err != nil {
				return nil, a.spell(err)
			}
			return RunReportFor(ctx, d, p.Workload, p.Strategy, p.Batch, p.SeqLen, p.Precision, p.Workers)
		},
		Timeline: func(_ context.Context, a Args) (*trace.Timeline, error) {
			t, err := runTimeline(RunPoint(a))
			return t, a.spell(err)
		}},
}

// once runs a command with its defaults in `mcdla all`.
var once = []string{""}

func textParse(_, raw string) (any, error) { return raw, nil }

// surrogateParse accepts the boolean spellings plus "on".
func surrogateParse(name, raw string) (any, error) {
	if raw == "on" {
		return true, nil
	}
	b, err := strconv.ParseBool(raw)
	if err != nil {
		return nil, badValue(name, raw, "1, true or on")
	}
	return b, nil
}

func parseStrategies(csv string) ([]train.Strategy, error) {
	var out []train.Strategy
	for _, s := range strings.Split(csv, ",") {
		strategy, err := train.ParseStrategy(s)
		if err != nil {
			return nil, err
		}
		out = append(out, strategy)
	}
	return out, nil
}

func parseCompressAxis(s string) ([]bool, error) {
	switch s {
	case "both":
		return []bool{false, true}, nil
	case "on":
		return []bool{true}, nil
	case "off":
		return []bool{false}, nil
	}
	return nil, fmt.Errorf("%q (want off, on or both)", s)
}

func reportOf[T any](build func(T) *report.Report, rows T, err error) (*report.Report, error) {
	if err != nil {
		return nil, err
	}
	return build(rows), nil
}

// RunPoint is the design point behind run's parameters: run accepts exactly
// the axes an optimizer recipe prints, so every frontier row reproduces
// through it.
func RunPoint(a Args) dse.Point {
	return dse.Point{
		Design:    arg[string](a, "design"),
		Workload:  arg[string](a, "workload"),
		Strategy:  arg[train.Strategy](a, "strategy"),
		Batch:     arg[int](a, "batch"),
		SeqLen:    arg[int](a, "seqlen"),
		Precision: arg[train.Precision](a, "precision"),
		Links:     arg[int](a, "links"),
		LinkGBps:  arg[float64](a, "gbps"),
		MemNodes:  arg[int](a, "memnodes"),
		DIMM:      arg[string](a, "dimm"),
		Compress:  arg[bool](a, "compress"),
		Workers:   arg[int](a, "workers"),
	}
}

func buildTransformer(ctx context.Context, a Args) (*report.Report, error) {
	var workloads []string
	if w := arg[string](a, "workload"); w != "" {
		workloads = []string{w}
	}
	rows, err := TransformerSweep(ctx, workloads, arg[[]int](a, "seqlens"), arg[[]train.Precision](a, "precisions"))
	if err != nil {
		return nil, err
	}
	cRows, err := AttentionCompress(ctx)
	if err != nil {
		return nil, err
	}
	return TransformerStudyReport(rows, cRows), nil
}

func buildPlane(ctx context.Context, a Args) (*report.Report, error) {
	workload, nodes, analytic := arg[string](a, "workload"), arg[[]int](a, "nodes"), arg[bool](a, "analytic")
	pts, err := ScaleOutRows(ctx, workload, nodes, analytic)
	if err != nil {
		return nil, err
	}
	rep := ScaleOutReport(workload, pts, analytic)
	if arg[bool](a, "compare") {
		// Reuse the event-driven study just computed (unless the main
		// table ran on the analytic engine).
		event := pts
		if analytic {
			event = nil
		}
		rows, err := ScaleOutCompare(ctx, workload, nodes, event)
		if err != nil {
			return nil, err
		}
		rep = report.Merge("plane", rep, ScaleOutCompareReport(workload, rows))
	}
	return rep, nil
}

func buildOptimize(ctx context.Context, a Args) (*report.Report, error) {
	search := arg[dse.SearchKind](a, "search")
	if arg[bool](a, "surrogate") {
		search = dse.Surrogate
	}
	space := DefaultOptimizeSpace()
	override(&space.Workloads, arg[[]string](a, "workloads"))
	override(&space.Designs, arg[[]string](a, "designs"))
	override(&space.Strategies, arg[[]train.Strategy](a, "strategies"))
	override(&space.Batches, arg[[]int](a, "batches"))
	override(&space.SeqLens, arg[[]int](a, "seqlens"))
	override(&space.Precisions, arg[[]train.Precision](a, "precisions"))
	override(&space.LinkCounts, arg[[]int](a, "links"))
	override(&space.LinkGBps, arg[[]float64](a, "gbps"))
	override(&space.MemNodes, arg[[]int](a, "memnodes"))
	override(&space.DIMMs, arg[[]string](a, "dimms"))
	space.Compress = arg[[]bool](a, "compress")
	res, err := Optimize(ctx, space, dse.Options{
		Search:    search,
		Objective: arg[dse.Objective](a, "objective"),
		Constraints: dse.Constraints{
			MaxCostUSD:    arg[float64](a, "max-cost"),
			MaxPowerW:     arg[float64](a, "max-power"),
			MinThroughput: arg[float64](a, "min-throughput"),
		},
	})
	return reportOf(OptimizeReport, res, a.spell(err))
}

// override replaces a default search axis with a given one.
func override[T any](axis *[]T, given []T) {
	if given != nil {
		*axis = given
	}
}

// fleetResults resolves the fleet trace (inline text, a synthetic trace of
// N jobs, or the built-in default), sizes the iso-cost clusters and runs
// the trace on each — through exactly the parser and validation both
// surfaces share, so the same trace yields the same simulation jobs, and
// therefore the same store keys.
func fleetResults(ctx context.Context, a Args) ([]*fleet.Result, error) {
	text, jobs := arg[string](a, "trace"), arg[int](a, "jobs")
	var tr []fleet.Job
	switch {
	case text != "" && jobs > 0:
		return nil, fmt.Errorf("fleet: trace and jobs are mutually exclusive")
	case text != "":
		var err error
		if tr, err = fleet.ParseTrace([]byte(text)); err != nil {
			return nil, err
		}
	case jobs > 0:
		tr = fleet.SyntheticTrace(jobs)
	default:
		tr = fleet.DefaultTrace()
	}
	clusters, err := FleetClusters(arg[int](a, "pods"), arg[[]string](a, "designs"))
	if err != nil {
		return nil, err
	}
	return Fleet(ctx, tr, clusters)
}
