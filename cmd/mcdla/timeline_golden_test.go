package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/memcentric/mcdla/internal/experiments"
	"github.com/memcentric/mcdla/internal/runner"
)

// TestGoldenTimelines pins the -timeline artifacts: the Chrome trace-event
// documents for the default run and fleet simulations are asserted
// byte-identical at -parallel 1 and -parallel 8, the same determinism
// guarantee the report goldens carry. Refresh with -update.
func TestGoldenTimelines(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"timeline_run_default", []string{"run", "-timeline"}},
		{"timeline_fleet_default", []string{"fleet", "-timeline"}},
	}
	for _, parallel := range []int{1, 8} {
		experiments.SetOptions(runner.Options{Parallelism: parallel})
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s/parallel%d", c.name, parallel), func(t *testing.T) {
				out := filepath.Join(t.TempDir(), "timeline.json")
				captureRun(t, append(append([]string(nil), c.args...), out))
				got, err := os.ReadFile(out)
				if err != nil {
					t.Fatalf("timeline file not written: %v", err)
				}
				// The document must stay loadable: Chrome trace-event JSON
				// with named events, not just stable bytes.
				var doc struct {
					TraceEvents []struct {
						Name string `json:"name"`
						Ph   string `json:"ph"`
					} `json:"traceEvents"`
				}
				if err := json.Unmarshal(got, &doc); err != nil {
					t.Fatalf("timeline is not valid JSON: %v", err)
				}
				if len(doc.TraceEvents) == 0 {
					t.Fatal("timeline has no trace events")
				}
				path := goldenPath(c.name)
				if *update && parallel == 1 {
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing fixture (run with -update to create): %v", err)
				}
				if string(got) != string(want) {
					t.Fatalf("mcdla %s timeline diverged from %s at -parallel %d", c.args[0], path, parallel)
				}
			})
		}
	}
	experiments.SetOptions(runner.Options{})
}
