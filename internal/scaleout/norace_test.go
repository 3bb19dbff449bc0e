//go:build !race

package scaleout

// raceEnabled reports a -race build (race_test.go).
const raceEnabled = false
