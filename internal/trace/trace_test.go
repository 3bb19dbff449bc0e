package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/memcentric/mcdla/internal/units"
)

func ms(v float64) units.Time { return units.Time(v * 1e-3) }

func sampleLog() *Log {
	l := &Log{Label: "test"}
	l.Add("conv1", "/fwd", Compute, 0, ms(2))
	l.Add("conv1", "/offload", Offload, ms(2), ms(5))
	l.Add("conv2", "/fwd", Compute, ms(2), ms(4))
	l.Add("conv2", "/stall", Stall, ms(4), ms(6))
	l.Add("tail/dW", "", SyncWait, ms(6), ms(7))
	return l
}

func TestAddDropsEmptySpans(t *testing.T) {
	l := &Log{}
	l.Add("noop", "", Compute, 5, 5)
	l.Add("backwards", "", Compute, 5, 4)
	if len(l.Spans) != 0 {
		t.Fatalf("degenerate spans recorded: %d", len(l.Spans))
	}
}

// TestAddJoinsName pins that a kept span's name is name+suffix.
func TestAddJoinsName(t *testing.T) {
	var want []string
	for _, s := range sampleLog().Spans {
		want = append(want, s.Name)
	}
	if got := strings.Join(want, ","); got != "conv1/fwd,conv1/offload,conv2/fwd,conv2/stall,tail/dW" {
		t.Fatalf("span names = %s", got)
	}
}

func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	l.Add("x", "", Compute, 0, 1) // must not panic
}

func TestSummary(t *testing.T) {
	s := sampleLog().Summary()
	if got := s[Compute].Seconds() * 1e3; got != 4 {
		t.Fatalf("compute total = %g ms, want 4", got)
	}
	if got := s[Stall].Seconds() * 1e3; got != 2 {
		t.Fatalf("stall total = %g ms, want 2", got)
	}
	if got := s[SyncWait].Seconds() * 1e3; got != 1 {
		t.Fatalf("sync total = %g ms, want 1", got)
	}
}

func TestValidate(t *testing.T) {
	if err := sampleLog().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Log{Spans: []Span{{Name: "x", Start: -1, End: 1}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("expected negative-start error")
	}
	bad = &Log{Spans: []Span{{Name: "x", Start: 2, End: 1}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("expected inverted-span error")
	}
}

func TestWriteChromeFormat(t *testing.T) {
	tl := &Timeline{Label: "test"}
	tl.AddProcess("device", sampleLog())
	var buf bytes.Buffer
	if err := tl.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
		DisplayUnit string `json:"displayTimeUnit"`
		Label       string `json:"label"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if doc.Label != "test" || doc.DisplayUnit != "ms" {
		t.Fatalf("metadata = %q %q", doc.Label, doc.DisplayUnit)
	}
	// Metadata events name the process and its lanes; every span follows
	// as a complete event, time-sorted within its lane.
	spans := 0
	prev := map[int]float64{}
	lanes := map[string]int{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			continue
		case "X":
		default:
			t.Fatalf("event phase = %q", e.Ph)
		}
		spans++
		if e.Ts < prev[e.Tid] {
			t.Fatalf("lane %d not sorted by start time", e.Tid)
		}
		prev[e.Tid] = e.Ts
		if e.Dur <= 0 {
			t.Fatalf("event %s has duration %g", e.Name, e.Dur)
		}
		lanes[e.Cat] = e.Tid
	}
	if spans != 5 {
		t.Fatalf("span event count = %d", spans)
	}
	// Compute and DMA lanes must differ so the trace renders as overlap.
	if lanes["compute"] == lanes["offload"] {
		t.Fatal("compute and offload share a lane")
	}
}

func TestCriticalPathShare(t *testing.T) {
	// 4 ms of compute over a 7 ms window.
	got := sampleLog().CriticalPathShare()
	want := 4.0 / 7.0
	if got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("critical-path share = %g, want %g", got, want)
	}
	if (&Log{}).CriticalPathShare() != 0 {
		t.Fatal("empty log share must be 0")
	}
}
