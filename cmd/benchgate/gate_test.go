package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// stream builds a minimal test2json stream with the given benchmark result
// lines, interleaved with the noise lines a real `go test -json` run emits.
func stream(results ...string) string {
	var b strings.Builder
	b.WriteString(`{"Action":"start","Package":"github.com/memcentric/mcdla"}` + "\n")
	for _, r := range results {
		name := strings.Fields(r)[0]
		b.WriteString(`{"Action":"output","Output":"=== RUN   ` + name + `\n"}` + "\n")
		b.WriteString(`{"Action":"output","Output":"` + name + `\n"}` + "\n")
		b.WriteString(`{"Action":"output","Output":"` + strings.ReplaceAll(r, "\t", `\t`) + `\n"}` + "\n")
	}
	b.WriteString(`{"Action":"output","Output":"PASS\n"}` + "\n")
	b.WriteString(`{"Action":"pass","Package":"github.com/memcentric/mcdla"}` + "\n")
	return b.String()
}

const (
	planeLine  = "BenchmarkPlaneSimulate-8 \t       1\t  42000000 ns/op\t        12.5 divergence-%\t 8000000 B/op\t   40000 allocs/op"
	fanoutLine = "BenchmarkRunnerFanout \t       1\t 900000000 ns/op\t        53.0 jobs/s\t64000000 B/op\t  500000 allocs/op"
)

func TestParseStream(t *testing.T) {
	res, err := Parse(strings.NewReader(stream(planeLine, fanoutLine)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("parsed %d results, want 2: %+v", len(res), res)
	}
	// The -8 GOMAXPROCS suffix must strip so baselines from different
	// machines compare by name.
	p, ok := res["BenchmarkPlaneSimulate"]
	if !ok {
		t.Fatalf("BenchmarkPlaneSimulate missing (suffix not stripped?): %+v", res)
	}
	if p.NsPerOp != 42000000 || p.AllocsPerOp != 40000 || p.BytesPerOp != 8000000 || !p.HasMem {
		t.Fatalf("wrong measurements: %+v", p)
	}
	f := res["BenchmarkRunnerFanout"]
	if f.NsPerOp != 900000000 || f.AllocsPerOp != 500000 {
		t.Fatalf("wrong unsuffixed measurements: %+v", f)
	}
}

// TestParseSplitResultLine covers the other flush shape test2json produces:
// the benchmark name goes out in one output event and the measurements in a
// later one that starts at the iteration count, with the name only in the
// record's Test field.
func TestParseSplitResultLine(t *testing.T) {
	const split = `{"Action":"output","Test":"BenchmarkTransformerSimulate","Output":"BenchmarkTransformerSimulate\n"}
{"Action":"output","Test":"BenchmarkTransformerSimulate","Output":"       1\t   5259209 ns/op\t         6.969 bert-speedup-x\t  825440 B/op\t    5991 allocs/op\n"}
{"Action":"output","Output":"PASS\n"}
`
	res, err := Parse(strings.NewReader(split))
	if err != nil {
		t.Fatal(err)
	}
	r, ok := res["BenchmarkTransformerSimulate"]
	if !ok {
		t.Fatalf("split result line not parsed: %+v", res)
	}
	if r.NsPerOp != 5259209 || r.AllocsPerOp != 5991 || r.BytesPerOp != 825440 {
		t.Fatalf("wrong split-line measurements: %+v", r)
	}
}

// TestParseFoldsRepeatedRuns covers -count > 1: the gate reads the least
// ns/op of the runs, the most B/op and allocs/op, and requires the exact
// counters to agree.
func TestParseFoldsRepeatedRuns(t *testing.T) {
	const line = "BenchmarkScaleOutPlane-2 \t      20\t  %d ns/op\t  %s\t  %d B/op\t  %d allocs/op"
	runs := []string{
		fmt.Sprintf(line, 160000, "78.00 fills/op", 900, 3),
		fmt.Sprintf(line, 1397790, "78.00 fills/op", 1000, 2), // a host stall
		fmt.Sprintf(line, 201000, "78.00 fills/op", 800, 5),
	}
	res, err := Parse(strings.NewReader(stream(runs...)))
	if err != nil {
		t.Fatal(err)
	}
	r := res["BenchmarkScaleOutPlane"]
	if r.NsPerOp != 160000 {
		t.Errorf("ns/op %.0f, want the least run's 160000", r.NsPerOp)
	}
	if r.AllocsPerOp != 5 || r.BytesPerOp != 1000 || !r.HasMem {
		t.Errorf("allocs/op %.0f and B/op %.0f, want the most: 5 and 1000", r.AllocsPerOp, r.BytesPerOp)
	}
	if r.Counters["fills/op"] != 78 {
		t.Errorf("fills/op %v, want 78", r.Counters)
	}
	for _, other := range []string{"79.00 fills/op", "2451 visits/op"} {
		odd := fmt.Sprintf(line, 150000, other, 900, 3)
		if _, err := Parse(strings.NewReader(stream(runs[0], odd))); err == nil || !strings.Contains(err.Error(), "BenchmarkScaleOutPlane") {
			t.Errorf("runs reporting 78.00 fills/op and %s: error %v, want one naming the benchmark", other, err)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	th := Thresholds{TimePct: 400, AllocsPct: 10}
	base := map[string]Result{
		"BenchmarkA": {NsPerOp: 100, AllocsPerOp: 1000, HasMem: true},
		"BenchmarkB": {NsPerOp: 100, AllocsPerOp: 1000, HasMem: true},
		"BenchmarkC": {NsPerOp: 100, AllocsPerOp: 1000, HasMem: true},
		"BenchmarkD": {NsPerOp: 100, AllocsPerOp: 1000, HasMem: true},
	}
	cur := map[string]Result{
		"BenchmarkA": {NsPerOp: 450, AllocsPerOp: 1099, HasMem: true}, // within both bounds
		"BenchmarkB": {NsPerOp: 100, AllocsPerOp: 1101, HasMem: true}, // allocs regression
		"BenchmarkC": {NsPerOp: 600, AllocsPerOp: 1000, HasMem: true}, // time blowup
		// BenchmarkD missing: must fail, not silently pass.
		"BenchmarkE": {NsPerOp: 100, AllocsPerOp: 1, HasMem: true}, // new: informational
	}
	rows := compare(base, cur, th)
	want := map[string]verdict{
		"BenchmarkA": pass, "BenchmarkB": regressed, "BenchmarkC": regressed,
		"BenchmarkD": missing, "BenchmarkE": pass,
	}
	for _, r := range rows {
		if r.Verdict != want[r.Name] {
			t.Errorf("%s: verdict %v (%s), want %v", r.Name, r.Verdict, r.Detail, want[r.Name])
		}
	}
	if len(rows) != len(want) {
		t.Fatalf("compared %d rows, want %d", len(rows), len(want))
	}
}

// TestFillsGateIsExact: fills/op must equal the baseline. Fewer rounds fail
// as well as more (the baseline must be regenerated with the change that
// explains them), and a baseline count the current run no longer reports
// fails too. A fills/op the baseline lacks is informational.
func TestFillsGateIsExact(t *testing.T) { checkExactCounter(t, "fills/op", 78, "2451 visits/op") }

// TestVisitsGateIsExact holds visits/op to the same rule, beside an
// unchanged fills/op.
func TestVisitsGateIsExact(t *testing.T) { checkExactCounter(t, "visits/op", 2451, "78.00 fills/op") }

// TestBuildsGateIsExact holds the cold request's graph and plan builds to
// the same rule.
func TestBuildsGateIsExact(t *testing.T) {
	checkExactCounter(t, "graphs/op", 10, "10.00 plans/op")
	checkExactCounter(t, "plans/op", 10, "10.00 graphs/op")
}

// checkExactCounter gates a result line reporting unit at value, and the
// other exact counter as other, against lines that move unit by one either
// way, drop it, or add it to a baseline that lacks it.
func checkExactCounter(t *testing.T, unit string, value float64, other string) {
	t.Helper()
	const line = "BenchmarkSimulateVGGEDP-2 \t       1\t    147273 ns/op\t        %s\t        %s\t   28096 B/op\t     193 allocs/op"
	parse := func(v float64) Result {
		t.Helper()
		metric := fmt.Sprintf("%.2f %s", v, unit)
		if v < 0 {
			metric = "1.5 divergence-%"
		}
		res, err := Parse(strings.NewReader(stream(fmt.Sprintf(line, metric, other))))
		if err != nil {
			t.Fatal(err)
		}
		return res["BenchmarkSimulateVGGEDP"]
	}
	base := parse(value)
	if got, ok := base.Counters[unit]; !ok || got != value {
		t.Fatalf("%s not parsed: %+v", unit, base)
	}
	th := Thresholds{TimePct: 400, AllocsPct: 10}
	for _, c := range []struct {
		name      string
		base, cur float64
		want      verdict
	}{
		{"equal", value, value, pass},
		{"higher", value, value + 1, regressed},
		{"lower", value, value - 1, regressed},
		{"missing", value, -1, regressed},
		{"new", -1, value, pass},
	} {
		rows := compare(map[string]Result{"B": parse(c.base)}, map[string]Result{"B": parse(c.cur)}, th)
		if rows[0].Verdict != c.want {
			t.Errorf("%s: verdict %v (%s), want %v", c.name, rows[0].Verdict, rows[0].Detail, c.want)
		}
		if c.want == regressed && !strings.HasPrefix(rows[0].Detail, unit+" ") {
			t.Errorf("%s: detail %q does not name %s", c.name, rows[0].Detail, unit)
		}
		if c.name == "lower" && !strings.Contains(rows[0].Detail, "regenerate the baseline") {
			t.Errorf("lower: detail %q does not say to regenerate the baseline", rows[0].Detail)
		}
	}
}

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestGateFailsOnDoctoredBaseline is the acceptance check: against a
// baseline doctored to claim fewer allocations than the current run, the
// gate exits nonzero; against the truthful baseline it exits zero.
func TestGateFailsOnDoctoredBaseline(t *testing.T) {
	dir := t.TempDir()
	current := writeFile(t, dir, "current.json", stream(planeLine))
	honest := writeFile(t, dir, "base.json", stream(planeLine))
	doctored := writeFile(t, dir, "doctored.json", stream(
		"BenchmarkPlaneSimulate-8 \t       1\t  42000000 ns/op\t 8000000 B/op\t   30000 allocs/op"))

	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()

	if code := run([]string{honest, current}, devnull, devnull); code != 0 {
		t.Fatalf("gate failed against its own baseline: exit %d", code)
	}
	if code := run([]string{doctored, current}, devnull, devnull); code != 1 {
		t.Fatalf("gate passed a 33%% allocs/op regression: exit %d, want 1", code)
	}
	// The doctored baseline passes once the threshold admits the growth.
	if code := run([]string{"-threshold", "50", doctored, current}, devnull, devnull); code != 0 {
		t.Fatalf("gate ignored -threshold: exit %d, want 0", code)
	}
	// A benchmark deleted from the current run also fails the gate.
	both := writeFile(t, dir, "both.json", stream(planeLine, fanoutLine))
	if code := run([]string{both, current}, devnull, devnull); code != 1 {
		t.Fatalf("gate passed with a benchmark missing from current: exit %d, want 1", code)
	}
	// Usage and unreadable files are exit 2, distinct from a regression.
	if code := run([]string{honest}, devnull, devnull); code != 2 {
		t.Fatalf("missing arg: exit %d, want 2", code)
	}
	if code := run([]string{filepath.Join(dir, "absent.json"), current}, devnull, devnull); code != 2 {
		t.Fatalf("unreadable baseline: exit %d, want 2", code)
	}
}

// TestGateAgainstCommittedBaselines keeps the checked-in CI baselines
// parseable and self-consistent: each must gate cleanly against itself.
func TestGateAgainstCommittedBaselines(t *testing.T) {
	matches, err := filepath.Glob(filepath.Join("..", "..", "bench", "baseline", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("no committed baselines under bench/baseline/")
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	for _, m := range matches {
		if code := run([]string{m, m}, devnull, devnull); code != 0 {
			t.Errorf("baseline %s does not gate cleanly against itself: exit %d", m, code)
		}
	}
}
