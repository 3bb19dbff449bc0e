package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHarmonicMean(t *testing.T) {
	if got := HarmonicMean([]float64{1, 1, 1}); got != 1 {
		t.Fatalf("HM(1,1,1) = %g", got)
	}
	// HM(1, 3) = 2/(1 + 1/3) = 1.5.
	if got := HarmonicMean([]float64{1, 3}); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("HM(1,3) = %g, want 1.5", got)
	}
	if got := HarmonicMean(nil); got != 0 {
		t.Fatalf("HM() = %g, want 0", got)
	}
}

func TestHarmonicMeanPanicsOnNonpositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	HarmonicMean([]float64{1, 0})
}

// Property: min ≤ HM ≤ max for positive inputs.
func TestPropertyMeanInequality(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, r := range raw[:min(len(raw), 8)] {
			xs = append(xs, float64(r%1000)+1)
		}
		lo, hi := xs[0], xs[0]
		for _, x := range xs[1:] {
			lo, hi = min(lo, x), max(hi, x)
		}
		hm := HarmonicMean(xs)
		return hm >= lo*(1-1e-9) && hm <= hi*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
