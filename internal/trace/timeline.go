// Timeline: the multi-process Chrome trace-event document behind
// `mcdla run/plane/fleet -timeline` and `?timeline=1` — the simulator face
// of the telemetry plane. Every value here is virtual-clock simulation
// output: construction is sequential and WriteChrome's ordering is total,
// so the emitted bytes are identical at any engine parallelism and can be
// golden-pinned like any other artifact.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Fleet job lifecycle categories: a Queue span covers arrival → start, a
// Service span covers start → finish on the placed pod.
const (
	Queue   Category = "queue"
	Service Category = "service"
)

// Lane is one named horizontal row of a timeline process — a Chrome thread.
// ID is the Chrome tid; lanes render top-to-bottom by ID.
type Lane struct {
	ID    int
	Name  string
	Spans []Span
}

// Process is one Chrome process group: a device in a plane sweep, a cluster
// in a fleet simulation.
type Process struct {
	Name  string
	Lanes []Lane
}

// Timeline is a multi-process trace document.
type Timeline struct {
	Label     string
	Processes []Process
}

// laneName names the fixed category lanes a Log fans out into.
func laneName(tid int) string {
	switch tid {
	case 0:
		return "compute"
	case 1:
		return "stall/sync"
	case 2:
		return "offload"
	case 3:
		return "prefetch"
	case 4:
		return "inter-sync"
	}
	return "other"
}

// FromLog converts a single-device span log into a process whose lanes are
// the category tracks (compute, stall/sync, offload, prefetch, inter-sync),
// preserving span order within each lane. Empty lanes are dropped.
func FromLog(name string, l *Log) Process {
	byTrack := map[int][]Span{}
	for _, s := range l.Spans {
		t := track(s.Category)
		byTrack[t] = append(byTrack[t], s)
	}
	ids := make([]int, 0, len(byTrack))
	for id := range byTrack {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	p := Process{Name: name}
	for _, id := range ids {
		p.Lanes = append(p.Lanes, Lane{ID: id, Name: laneName(id), Spans: byTrack[id]})
	}
	return p
}

// AddProcess appends a process built from a span log.
func (t *Timeline) AddProcess(name string, l *Log) {
	t.Processes = append(t.Processes, FromLog(name, l))
}

// chromeEvent is one Chrome trace-event ("X" = complete event). Times are
// microseconds per the format.
type chromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
}

// chromeMeta is a Chrome "M" metadata event naming a process or thread.
type chromeMeta struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args"`
}

// Validate checks every process's spans through the Log invariants.
func (t *Timeline) Validate() error {
	for _, p := range t.Processes {
		for _, lane := range p.Lanes {
			l := Log{Label: p.Name, Spans: lane.Spans}
			if err := l.Validate(); err != nil {
				return fmt.Errorf("trace: process %q lane %q: %v", p.Name, lane.Name, err)
			}
		}
	}
	return nil
}

// WriteChrome serializes the timeline as one Chrome trace-event JSON
// document: process_name/thread_name metadata events first (so Perfetto
// labels the lanes), then every span as an "X" complete event. The sort is
// total — (pid, tid, ts, dur, name) — so the bytes are deterministic for a
// given timeline regardless of how it was assembled.
func (t *Timeline) WriteChrome(w io.Writer) error {
	var metas []chromeMeta
	var events []chromeEvent
	for pi, p := range t.Processes {
		pid := pi + 1
		metas = append(metas, chromeMeta{
			Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
			Args: map[string]string{"name": p.Name},
		})
		for _, lane := range p.Lanes {
			metas = append(metas, chromeMeta{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: lane.ID,
				Args: map[string]string{"name": lane.Name},
			})
			for _, s := range lane.Spans {
				events = append(events, chromeEvent{
					Name: s.Name,
					Cat:  string(s.Category),
					Ph:   "X",
					Ts:   s.Start.Microseconds(),
					Dur:  s.Duration().Microseconds(),
					Pid:  pid,
					Tid:  lane.ID,
				})
			}
		}
	}
	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.Pid != b.Pid {
			return a.Pid < b.Pid
		}
		if a.Tid != b.Tid {
			return a.Tid < b.Tid
		}
		if a.Ts != b.Ts {
			return a.Ts < b.Ts
		}
		if a.Dur != b.Dur {
			return a.Dur < b.Dur
		}
		return a.Name < b.Name
	})
	// Marshal events one per line: diffable goldens, and Perfetto accepts
	// any whitespace inside the array.
	if _, err := fmt.Fprintf(w, "{\"label\":%q,\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", t.Label); err != nil {
		return err
	}
	n := 0
	writeOne := func(v any) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		sep := ",\n"
		if n == 0 {
			sep = ""
		}
		if n > 0 {
			if _, err := io.WriteString(w, sep); err != nil {
				return err
			}
		}
		n++
		_, err = w.Write(b)
		return err
	}
	for _, m := range metas {
		if err := writeOne(m); err != nil {
			return err
		}
	}
	for _, e := range events {
		if err := writeOne(e); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n]}\n")
	return err
}
