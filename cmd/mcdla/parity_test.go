package main

import (
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"github.com/memcentric/mcdla/internal/experiments"
	"github.com/memcentric/mcdla/internal/runner"
	"github.com/memcentric/mcdla/internal/server"
)

// TestHTTPParity replays every golden case over HTTP: the case's flags
// become /v1/<cmd> query parameters through the command table, and the text
// reply must equal the CLI golden. A command or flag without an HTTP twin
// fails the test.
func TestHTTPParity(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Options{Parallelism: 4}).Handler())
	defer ts.Close()
	defer experiments.SetOptions(runner.Options{})
	for _, gc := range goldenCases {
		t.Run(gc.name, func(t *testing.T) {
			c := experiments.Lookup(gc.args[0])
			if c == nil {
				t.Fatalf("%s is not a table command, so it has no /v1 route", gc.args[0])
			}
			q, err := flagValues(flag.NewFlagSet(c.Name, flag.ContinueOnError), c, gc.args[1:])
			if err != nil {
				t.Fatalf("flags %v have no query twin: %v", gc.args[1:], err)
			}
			if _, err := parseArgs(c, q); err != nil {
				t.Fatal(err)
			}
			q.Set("format", "text")
			resp, err := http.Get(ts.URL + "/v1/" + c.Name + "?" + q.Encode())
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET /v1/%s?%s = %d: %s", c.Name, q.Encode(), resp.StatusCode, body)
			}
			want, err := os.ReadFile(goldenPath(gc.name))
			if err != nil {
				t.Fatal(err)
			}
			if string(body) != string(want) {
				t.Fatalf("GET /v1/%s?%s diverged from %s.golden:\n%s", c.Name, q.Encode(), gc.name, body)
			}
		})
	}
}

// TestBadFlagsNameTheFlag: a value the table rejects fails the command with
// an error naming the flag as the CLI spells it.
func TestBadFlagsNameTheFlag(t *testing.T) {
	for _, args := range [][]string{
		{"run", "-gbps", "-5"},
		{"run", "-gbps", "NaN"},
		{"run", "-gbps", "Inf"},
		{"run", "-links", "-3"},
		{"run", "-memnodes", "-1"},
		{"run", "-batch", "banana"},
		{"explore", "-gbps", "25,NaN"},
		{"optimize", "-max-cost", "NaN"},
		{"optimize", "-min-throughput", "-1"},
		{"fleet", "-pods", "-2"},
		{"run", "-memnodes", "4", "-design", "DC-DLA"},
		{"run", "-links", "4", "-design", "MC-DLA(S)"},
		{"run", "-workers", "4", "-design", "MC-DLA(S)"},
	} {
		err := run(t.Context(), args)
		if err == nil || !strings.Contains(err.Error(), args[1]) {
			t.Errorf("mcdla %s: error %v, want one naming %s", strings.Join(args, " "), err, args[1])
		}
	}
}
