//go:build race

package core

// raceEnabled reports a -race build. Its sync.Pool drops a random quarter
// of the values put in it, so a simulation may start from fresh tables.
const raceEnabled = true
