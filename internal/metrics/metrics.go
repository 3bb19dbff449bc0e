// Package metrics holds the averaging rule of the paper's evaluation: every
// average it reports is a harmonic mean (§V).
package metrics

import "fmt"

// HarmonicMean returns the harmonic mean of xs. It panics on nonpositive
// inputs (speedups and performance ratios are strictly positive) and returns
// 0 for an empty slice.
func HarmonicMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("metrics: harmonic mean of nonpositive value %g", x))
		}
		sum += 1 / x
	}
	return float64(len(xs)) / sum //mcdlalint:allow floatguard -- every term is validated positive above, so sum > 0
}
