package units

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ParsePositiveInts parses a comma-separated list of positive integers,
// rejecting trailing garbage ("512x1024") and nonpositive values outright.
// name labels the list in errors — the CLI passes its flag ("-nodes"), the
// HTTP API its query parameter ("nodes") — so both surfaces name the
// offending input the same way.
func ParsePositiveInts(name, csv string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(csv, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("invalid %s list %q: element %q is not a positive integer", name, csv, part)
		}
		out = append(out, n)
	}
	return out, nil
}

// ParsePositiveFloats is ParsePositiveInts for positive finite real
// quantities (per-link GB/s in the explore sweep); NaN and ±Inf are
// rejected with the nonpositive values.
func ParsePositiveFloats(name, csv string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(csv, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || !(f > 0) || math.IsInf(f, 1) {
			return nil, fmt.Errorf("invalid %s list %q: element %q is not a positive number", name, csv, part)
		}
		out = append(out, f)
	}
	return out, nil
}
