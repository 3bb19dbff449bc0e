package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's measurements from a test2json stream. NsPerOp is
// always present on a result line; the memory columns require -benchmem.
// Counters holds the exact work counters the line reported, by unit.
type Result struct {
	NsPerOp     float64
	BytesPerOp  float64
	AllocsPerOp float64
	HasMem      bool
	Counters    map[string]float64
}

// exactCounters are the custom metrics that count the simulator's work
// exactly: water-fill rounds and event-loop visits, reported by the event-loop
// benchmarks, and graph and memory-plan builds, reported by the cold
// request benchmark. They do not depend on the machine, so the gate holds
// each to its baseline value.
var exactCounters = []string{"fills/op", "visits/op", "graphs/op", "plans/op"}

// event is the slice of a test2json record benchgate cares about.
type event struct {
	Action string `json:"Action"`
	Test   string `json:"Test"`
	Output string `json:"Output"`
}

// benchLine matches a benchmark result line: name, iteration count, then the
// value/unit pairs. The -N GOMAXPROCS suffix is stripped so baselines
// compare across machines with different core counts.
var benchLine = regexp.MustCompile(`^(Benchmark[^\s-]+(?:-\d+)?)\s+(\d+)\s+(.+)$`)

// contLine matches a result line whose name was flushed in an earlier event:
// the output starts at the iteration count and the name rides in the record's
// Test field instead.
var contLine = regexp.MustCompile(`^\s*(\d+)\s+(.+)$`)

// Parse reads a `go test -json` stream and collects the benchmark result
// lines. Several runs of one benchmark (-count > 1) fold into one result
// (merge); runs whose exact counters disagree are an error.
func Parse(r io.Reader) (map[string]Result, error) {
	out := make(map[string]Result)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev event
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("malformed test2json line %q: %w", sc.Text(), err)
		}
		if ev.Action != "output" {
			continue
		}
		text := strings.TrimSuffix(ev.Output, "\n")
		var name, rest string
		if m := benchLine.FindStringSubmatch(text); m != nil {
			name, rest = m[1], m[3]
		} else if strings.HasPrefix(ev.Test, "Benchmark") {
			m := contLine.FindStringSubmatch(text)
			if m == nil {
				continue
			}
			name, rest = ev.Test, m[2]
		} else {
			continue
		}
		res, ok := parseMeasurements(rest)
		if !ok {
			continue
		}
		name = stripProcSuffix(name)
		if prev, seen := out[name]; seen {
			var err error
			if res, err = merge(name, prev, res); err != nil {
				return nil, err
			}
		}
		out[name] = res
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// merge folds another run of a benchmark into the runs before it. It keeps
// the least ns/op, because a stall of a shared host only ever slows a run,
// and the most B/op and allocs/op, the stricter reading of the memory
// columns. The exact counters count deterministic work, so every run must
// report the same ones.
func merge(name string, a, b Result) (Result, error) {
	if !maps.Equal(a.Counters, b.Counters) {
		return Result{}, fmt.Errorf("%s: exact counters differ across runs: %v and %v", name, a.Counters, b.Counters)
	}
	a.NsPerOp = min(a.NsPerOp, b.NsPerOp)
	a.BytesPerOp = max(a.BytesPerOp, b.BytesPerOp)
	a.AllocsPerOp = max(a.AllocsPerOp, b.AllocsPerOp)
	a.HasMem = a.HasMem || b.HasMem
	return a, nil
}

func stripProcSuffix(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// parseMeasurements walks the tab-separated "value unit" pairs of a result
// line, keeping the comparable units and ignoring other custom metrics.
func parseMeasurements(s string) (Result, bool) {
	var res Result
	var hasTime bool
	fields := strings.Fields(s)
	for i := 0; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			res.NsPerOp = v
			hasTime = true
		case "B/op":
			res.BytesPerOp = v
			res.HasMem = true
		case "allocs/op":
			res.AllocsPerOp = v
			res.HasMem = true
		default:
			if slices.Contains(exactCounters, fields[i+1]) {
				if res.Counters == nil {
					res.Counters = map[string]float64{}
				}
				res.Counters[fields[i+1]] = v
			}
		}
	}
	return res, hasTime
}

// Thresholds bound the allowed growth of each gated unit, in percent.
type Thresholds struct {
	TimePct   float64
	AllocsPct float64
}

type verdict int

const (
	pass verdict = iota
	regressed
	missing
)

func (v verdict) String() string {
	switch v {
	case regressed:
		return "REGRESSED"
	case missing:
		return "MISSING"
	default:
		return "ok"
	}
}

// Row is one benchmark's comparison. A zero Base means the benchmark is new
// (informational, passes); a zero Cur with Verdict missing fails the gate.
type Row struct {
	Name     string
	Base     Result
	Cur      Result
	New      bool
	Verdict  verdict
	Detail   string
	TimePct  float64
	AllocPct float64
}

// compare gates current against baseline. Names are compared in sorted
// order so the table (and the first failing row) is deterministic.
func compare(baseline, current map[string]Result, th Thresholds) []Row {
	names := make(map[string]bool, len(baseline)+len(current))
	for n := range baseline {
		names[n] = true
	}
	for n := range current {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	rows := make([]Row, 0, len(sorted))
	for _, n := range sorted {
		base, inBase := baseline[n]
		cur, inCur := current[n]
		row := Row{Name: n, Base: base, Cur: cur}
		switch {
		case !inCur:
			row.Verdict = missing
			row.Detail = "present in baseline, absent from current run"
		case !inBase:
			row.New = true
			row.Detail = "new benchmark (not in baseline)"
		default:
			row.TimePct = growthPct(base.NsPerOp, cur.NsPerOp)
			if base.HasMem && cur.HasMem {
				row.AllocPct = growthPct(base.AllocsPerOp, cur.AllocsPerOp)
			}
			var fails []string
			if row.TimePct > th.TimePct {
				fails = append(fails, fmt.Sprintf("time/op +%.1f%% > %.1f%%", row.TimePct, th.TimePct))
			}
			if base.HasMem && cur.HasMem && row.AllocPct > th.AllocsPct {
				fails = append(fails, fmt.Sprintf("allocs/op +%.1f%% > %.1f%%", row.AllocPct, th.AllocsPct))
			}
			// An exact counter's change, either way, means the event loop
			// does different work, and the baseline must be regenerated with
			// the change that explains it.
			for _, unit := range exactCounters {
				want, inBase := base.Counters[unit]
				got, inCur := cur.Counters[unit]
				switch {
				case inBase && !inCur:
					fails = append(fails, unit+" missing from current run")
				case inBase && got != want:
					fails = append(fails, fmt.Sprintf("%s %.0f != baseline %.0f (regenerate the baseline if intended)", unit, got, want))
				}
			}
			if len(fails) > 0 {
				row.Verdict = regressed
				row.Detail = strings.Join(fails, "; ")
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// growthPct is the percent growth from base to cur; a zero base only grows
// if cur is nonzero.
func growthPct(base, cur float64) float64 {
	if base <= 0 {
		if cur <= 0 {
			return 0
		}
		return 100
	}
	return 100 * (cur - base) / base
}

// formatTable renders the benchstat-style comparison.
func formatTable(basePath, curPath string, rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "benchgate: %s vs %s\n", basePath, curPath)
	w := 0
	for _, r := range rows {
		if len(r.Name) > w {
			w = len(r.Name)
		}
	}
	fmt.Fprintf(&b, "%-*s  %14s  %14s  %9s  %12s  %9s\n", w, "benchmark",
		"base ns/op", "cur ns/op", "Δtime", "allocs/op", "Δallocs")
	for _, r := range rows {
		switch {
		case r.Verdict == missing:
			fmt.Fprintf(&b, "%-*s  %14.0f  %14s  %9s  %12s  %9s  MISSING\n",
				w, r.Name, r.Base.NsPerOp, "-", "-", "-", "-")
		case r.New:
			fmt.Fprintf(&b, "%-*s  %14s  %14.0f  %9s  %12.0f  %9s  new\n",
				w, r.Name, "-", r.Cur.NsPerOp, "-", r.Cur.AllocsPerOp, "-")
		default:
			mark := ""
			if r.Verdict == regressed {
				mark = "  REGRESSED (" + r.Detail + ")"
			}
			alloc := "-"
			if r.Base.HasMem && r.Cur.HasMem {
				alloc = fmt.Sprintf("%+.1f%%", r.AllocPct)
			}
			fmt.Fprintf(&b, "%-*s  %14.0f  %14.0f  %+8.1f%%  %12.0f  %9s%s\n",
				w, r.Name, r.Base.NsPerOp, r.Cur.NsPerOp, r.TimePct, r.Cur.AllocsPerOp, alloc, mark)
		}
	}
	return b.String()
}
