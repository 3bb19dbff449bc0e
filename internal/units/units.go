// Package units provides the value types shared by every mcdla subsystem:
// byte counts, bandwidths, and simulated time. Keeping them as distinct
// named types catches unit-mixing bugs at compile time (a Bandwidth cannot
// be added to a Time) while remaining plain float64/int64 underneath so the
// simulator stays allocation-free on its hot paths.
package units

import (
	"fmt"
	"math"
)

// Bytes is a data size in bytes. Sizes in the simulator are always whole
// bytes, but transfers are fractional when striped across links, so the
// bandwidth math below converts to float64.
type Bytes int64

// Common byte-size multiples.
const (
	KB Bytes = 1 << 10
	MB Bytes = 1 << 20
	GB Bytes = 1 << 30
	TB Bytes = 1 << 40
)

func (b Bytes) String() string {
	switch {
	case b >= TB:
		return fmt.Sprintf("%.2f TB", float64(b)/float64(TB))
	case b >= GB:
		return fmt.Sprintf("%.2f GB", float64(b)/float64(GB))
	case b >= MB:
		return fmt.Sprintf("%.2f MB", float64(b)/float64(MB))
	case b >= KB:
		return fmt.Sprintf("%.2f KB", float64(b)/float64(KB))
	default:
		return fmt.Sprintf("%d B", int64(b))
	}
}

// Bandwidth is a transfer rate in bytes per second.
type Bandwidth float64

// GBps returns a Bandwidth of g gigabytes per second, using the decimal
// (vendor datasheet) convention the paper uses: 1 GB/s = 1e9 B/s.
func GBps(g float64) Bandwidth { return Bandwidth(g * 1e9) }

// GBps reports the bandwidth in decimal GB/s.
func (bw Bandwidth) GBps() float64 { return float64(bw) / 1e9 }

func (bw Bandwidth) String() string { return fmt.Sprintf("%.1f GB/s", bw.GBps()) }

// Time is a point or span of simulated time in seconds.
type Time float64

// Seconds builds a Time from a second count.
func Seconds(s float64) Time { return Time(s) }

// Seconds reports t as a float64 second count.
func (t Time) Seconds() float64 { return float64(t) }

// Microseconds reports t in microseconds.
func (t Time) Microseconds() float64 { return float64(t) * 1e6 }

func (t Time) String() string {
	abs := math.Abs(float64(t))
	switch {
	case abs >= 1:
		return fmt.Sprintf("%.3f s", float64(t))
	case abs >= 1e-3:
		return fmt.Sprintf("%.3f ms", float64(t)*1e3)
	case abs >= 1e-6:
		return fmt.Sprintf("%.3f us", float64(t)*1e6)
	case t == 0:
		return "0 s"
	default:
		return fmt.Sprintf("%.1f ns", float64(t)*1e9)
	}
}

// TransferTime reports how long moving b bytes over bw takes. A zero or
// negative bandwidth yields +Inf, which the simulator treats as "link absent";
// that surfaces configuration errors as unmistakably broken timelines rather
// than silently-fast ones.
func TransferTime(b Bytes, bw Bandwidth) Time {
	if bw <= 0 {
		return Time(math.Inf(1))
	}
	return Time(float64(b) / float64(bw))
}

// MaxTime returns the later of two times.
func MaxTime(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// MinTime returns the earlier of two times.
func MinTime(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}
