// Command benchgate is the benchmark regression gate: a benchstat-style
// comparator over `go test -bench -benchmem -json` artifacts (the CI
// BENCH_*.json trajectory files). It parses the benchmark result lines out
// of the test2json stream, compares time/op and allocs/op against a
// committed baseline, prints a comparison table, and exits nonzero when any
// benchmark regresses past the threshold — or silently disappears.
//
// Usage:
//
//	benchgate [-threshold 10] [-time-threshold 400] baseline.json current.json
//
// -threshold bounds the allocs/op growth in percent. -time-threshold bounds
// ns/op growth separately (default: 400): the committed baselines and the CI
// runners are different machines and the trajectory files run a few
// iterations, so wall-clock is gated loosely — it catches order-of-
// magnitude blowups — while allocs/op, which is deterministic and
// machine-independent, carries the tight bound. The exact work counters
// must match their baselines exactly, fewer as well as more: fills/op (the
// simulator's water-fill rounds), visits/op (the entries its event loop
// touches), graphs/op and plans/op (graph and memory-plan builds). Each is a
// pure function of the work done.
//
// New benchmarks (in current, not in baseline) are reported but pass: they
// gate once the baseline is regenerated. Benchmarks present in the baseline
// but missing from current fail the gate — a deleted benchmark must leave
// the baseline with it, not dodge the comparison.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	threshold := fs.Float64("threshold", 10, "max allocs/op growth in percent")
	timeThreshold := fs.Float64("time-threshold", 400, "max ns/op growth in percent (loose: trajectory files run a few iterations on heterogeneous machines)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchgate [-threshold pct] [-time-threshold pct] baseline.json current.json")
		return 2
	}
	baseline, err := parseFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "benchgate: %v\n", err)
		return 2
	}
	current, err := parseFile(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "benchgate: %v\n", err)
		return 2
	}
	rows := compare(baseline, current, Thresholds{TimePct: *timeThreshold, AllocsPct: *threshold})
	fmt.Fprint(stdout, formatTable(fs.Arg(0), fs.Arg(1), rows))
	for _, r := range rows {
		if r.Verdict != pass {
			return 1
		}
	}
	return 0
}

func parseFile(path string) (map[string]Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	res, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(res) == 0 {
		return nil, fmt.Errorf("%s: no benchmark results found", path)
	}
	return res, nil
}
