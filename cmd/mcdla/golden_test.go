package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/memcentric/mcdla/internal/dse"
	"github.com/memcentric/mcdla/internal/experiments"
)

// Golden-output regression tests: every subcommand's stdout is pinned to a
// fixture under testdata/, and each fixture is asserted byte-identical at
// -parallel 1 and -parallel 8 — the PR-1 determinism guarantee promoted to
// full-command granularity. Refresh after an intentional model change with:
//
//	go test ./cmd/mcdla -run TestGoldenOutputs -update
var update = flag.Bool("update", false, "rewrite the golden fixtures under testdata/")

// goldenCases lists every subcommand variant the harness pins. The plane and
// transformer cases run reduced axes so the full suite stays fast; `all` is
// the concatenation of subcommands already covered individually.
var goldenCases = []struct {
	name string
	args []string
}{
	{"networks", []string{"networks"}},
	{"config", []string{"config"}},
	{"fig2", []string{"fig2"}},
	{"fig9", []string{"fig9"}},
	{"fig11_dp", []string{"fig11", "-strategy", "dp"}},
	{"fig11_mp", []string{"fig11", "-strategy", "mp"}},
	{"fig12", []string{"fig12"}},
	{"fig13_dp", []string{"fig13", "-strategy", "dp"}},
	{"fig13_mp", []string{"fig13", "-strategy", "mp"}},
	{"fig14", []string{"fig14"}},
	{"tab4", []string{"tab4"}},
	{"headline", []string{"headline"}},
	{"sens", []string{"sens"}},
	{"scale", []string{"scale"}},
	{"explore", []string{"explore"}},
	{"plane_compare", []string{"plane", "-nodes", "1,2", "-compare"}},
	{"plane_analytic", []string{"plane", "-nodes", "1,2", "-analytic"}},
	{"plane_bert", []string{"plane", "-workload", "BERT-Large", "-nodes", "1,2"}},
	{"transformer", []string{"transformer", "-seqlens", "128,256"}},
	{"optimize", []string{"optimize"}},
	{"optimize_greedy", []string{"optimize", "-search", "greedy", "-objective", "perf-per-watt", "-max-power", "4300"}},
	{"optimize_surrogate", []string{"optimize", "-surrogate"}},
	{"fleet_default", []string{"fleet"}},
	{"fleet_synthetic", []string{"fleet", "-jobs", "20", "-pods", "1", "-designs", "DC-DLA,MC-DLA(B)"}},
	{"run_default", []string{"run"}},
	{"run_recipe", []string{"run", "-design", "MC-DLA(B)", "-workload", "VGG-E", "-batch", "512", "-gbps", "50", "-memnodes", "4", "-dimm", "32GB-LRDIMM"}},
	{"run_rnn_mp", []string{"run", "-workload", "RNN-GRU", "-strategy", "mp", "-design", "DC-DLA"}},
	{"run_gpt2_mixed", []string{"run", "-workload", "GPT-2", "-precision", "mixed", "-seqlen", "256"}},
	{"run_bert_fp32", []string{"run", "-workload", "BERT-Large", "-precision", "fp32", "-design", "DC-DLA"}},
}

// captureRun executes the dispatcher with stdout redirected and returns what
// it printed.
func captureRun(t *testing.T, args []string) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	outCh := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		outCh <- string(b)
	}()
	runErr := run(context.Background(), args)
	w.Close()
	os.Stdout = old
	out := <-outCh
	if runErr != nil {
		t.Fatalf("mcdla %s: %v", strings.Join(args, " "), runErr)
	}
	return out
}

func goldenPath(name string) string {
	return filepath.Join("testdata", name+".golden")
}

func TestGoldenOutputs(t *testing.T) {
	for _, parallel := range []int{1, 8} {
		experiments.SetParallelism(parallel)
		for _, c := range goldenCases {
			t.Run(fmt.Sprintf("%s/parallel%d", c.name, parallel), func(t *testing.T) {
				got := captureRun(t, c.args)
				path := goldenPath(c.name)
				if *update && parallel == 1 {
					if err := os.MkdirAll("testdata", 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing fixture (run with -update to create): %v", err)
				}
				if got != string(want) {
					t.Fatalf("mcdla %s output diverged from %s at -parallel %d\ngot:\n%s\nwant:\n%s",
						strings.Join(c.args, " "), path, parallel, got, string(want))
				}
			})
		}
	}
	experiments.SetParallelism(0)
}

// TestUnknownSubcommandErrors keeps the dispatcher's failure path honest.
func TestUnknownSubcommandErrors(t *testing.T) {
	if err := run(context.Background(), []string{"no-such-subcommand"}); err == nil {
		t.Fatal("unknown subcommand did not error")
	}
	if err := run(context.Background(), nil); err == nil {
		t.Fatal("missing subcommand did not error")
	}
}

// TestOptimizeRecipesReproduce closes the acceptance loop on the optimizer:
// every frontier row of the default study prints a `mcdla run` recipe, and
// feeding that exact command line back through the run dispatcher must
// reproduce the iteration time the frontier tabulated.
func TestOptimizeRecipesReproduce(t *testing.T) {
	experiments.SetParallelism(4)
	defer experiments.SetParallelism(0)
	res, err := experiments.Optimize(context.Background(), experiments.DefaultOptimizeSpace(), dse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frontier) == 0 {
		t.Fatal("empty frontier")
	}
	for _, e := range res.Frontier {
		recipe := e.Point.Recipe()
		args := strings.Fields(strings.TrimPrefix(recipe, "mcdla "))
		for i, a := range args {
			args[i] = strings.Trim(a, "'")
		}
		out := captureRun(t, args)
		if want := e.Iter.String(); !strings.Contains(out, want) {
			t.Fatalf("recipe %q reported a different iteration time (want %s):\n%s", recipe, want, out)
		}
	}
}
