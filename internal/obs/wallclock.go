// Wall-clock helpers, deliberately quarantined in one file: these are the
// only obs names that read real time, and the nondeterminism analyzer bans
// the two that start a measurement (StartTimer, SinceSeconds) inside the
// deterministic packages. Counters/gauges/histograms — plain
// atomic arithmetic — remain usable everywhere.
package obs

import "time"

// Timer captures a wall-clock start instant.
type Timer struct {
	start time.Time
}

// StartTimer begins a wall-clock measurement. Service-face only — never
// inside the simulator's deterministic scope.
func StartTimer() Timer { return Timer{start: time.Now()} }

// Seconds reports the wall-clock time elapsed since StartTimer.
func (t Timer) Seconds() float64 { return time.Since(t.start).Seconds() }

// SinceSeconds reports wall-clock seconds elapsed since a time captured by
// the caller (e.g. process start for an uptime gauge).
func SinceSeconds(start time.Time) float64 { return time.Since(start).Seconds() }
