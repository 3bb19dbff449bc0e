// Package trace records simulated execution timelines — per-layer compute
// spans, DMA stalls, recompute bursts, and collective waits — and exports
// them in the Chrome trace-event JSON format (chrome://tracing, Perfetto),
// so a training iteration's overlap behaviour can be inspected visually.
package trace

import (
	"fmt"

	"github.com/memcentric/mcdla/internal/sim"
	"github.com/memcentric/mcdla/internal/units"
)

// Category classifies a span for summary accounting and trace coloring.
type Category string

// Span categories emitted by the simulator.
const (
	Compute   Category = "compute"
	Recompute Category = "recompute"
	Stall     Category = "stall"
	SyncWait  Category = "sync-wait"
	Offload   Category = "offload"
	Prefetch  Category = "prefetch"
	// InterSync marks scale-out collective stages crossing the system-node
	// uplinks (the inter-node lap of a hierarchical all-reduce), so plane
	// traces separate chassis-local from plane-wide synchronization.
	InterSync Category = "inter-sync"
)

// Span is one closed interval of simulated time attributed to an activity.
type Span struct {
	Name     string
	Category Category
	Start    units.Time
	End      units.Time
}

// Duration reports the span length.
func (s Span) Duration() units.Time { return s.End - s.Start }

// Log collects spans for one simulated iteration.
type Log struct {
	// Label names the run (design × workload).
	Label string
	Spans []Span
	// Fills counts the run's water-fill rounds, summed over its distinct
	// channels (sim.ChannelStats.Fills): an exact work counter for
	// benchmarks, kept out of the engines' results.
	Fills int
	// Visits sums the same channels' visits (sim.ChannelStats.Visits): the
	// heap entries and priority classes each of those rounds and moves
	// touched.
	Visits int
}

// Tally adds one channel's work counters to the log's. A nil log ignores
// them.
func (l *Log) Tally(st sim.ChannelStats) {
	if l == nil {
		return
	}
	l.Fills += st.Fills
	l.Visits += st.Visits
}

// Add records a span named name+suffix; zero-length spans are dropped. The
// name is joined only once a span is kept, so an untraced run (nil log)
// builds no span names.
func (l *Log) Add(name, suffix string, cat Category, start, end units.Time) {
	if l == nil || end <= start {
		return
	}
	l.Spans = append(l.Spans, Span{Name: name + suffix, Category: cat, Start: start, End: end})
}

// Summary totals span time per category.
func (l *Log) Summary() map[Category]units.Time {
	out := make(map[Category]units.Time)
	for _, s := range l.Spans {
		out[s.Category] += s.Duration()
	}
	return out
}

// Validate checks structural invariants: nonnegative spans in chronological
// start order within each category track.
func (l *Log) Validate() error {
	for i, s := range l.Spans {
		if s.End < s.Start {
			return fmt.Errorf("trace: span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Start < 0 {
			return fmt.Errorf("trace: span %d (%s) starts before time zero", i, s.Name)
		}
	}
	return nil
}

// track assigns each category a Chrome thread lane so compute, DMA and
// collective activity render as parallel rows.
func track(cat Category) int {
	switch cat {
	case Compute, Recompute:
		return 0
	case Stall, SyncWait:
		return 1
	case Offload:
		return 2
	case Prefetch:
		return 3
	case InterSync:
		return 4
	case Queue, Service:
		// Fleet lifecycle categories: fleet timelines lay these out on
		// explicit per-pod lanes, so the category track is only a fallback
		// for logs that mix them in.
		return 5
	}
	return 5
}

// CriticalPathShare reports the fraction of the iteration (first start to
// last end) covered by compute-track spans — a quick overlap-quality figure.
func (l *Log) CriticalPathShare() float64 {
	if len(l.Spans) == 0 {
		return 0
	}
	first, last := l.Spans[0].Start, l.Spans[0].End
	var busy units.Time
	for _, s := range l.Spans {
		if s.Start < first {
			first = s.Start
		}
		if s.End > last {
			last = s.End
		}
		if s.Category == Compute || s.Category == Recompute {
			busy += s.Duration()
		}
	}
	total := last - first
	if total <= 0 {
		return 0
	}
	return busy.Seconds() / total.Seconds()
}
