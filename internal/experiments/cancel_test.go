package experiments

import (
	"context"
	"errors"
	"testing"

	"github.com/memcentric/mcdla/internal/train"
)

// TestGeneratorsHonorCancelledContext is the regression test for the ctx
// threading: every generator now takes the caller's context and must abort
// instead of running its sweep when that context is already cancelled — the
// property that lets an HTTP client disconnect stop a queued experiment
// grid. A generator that quietly drops its context would pass a fresh
// Background() down and complete anyway, so each call must fail, and fail
// with the context's own error.
func TestGeneratorsHonorCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	generators := map[string]func() error{
		"fig2":     func() error { _, err := Fig2(ctx); return err },
		"fig11":    func() error { _, err := Fig11(ctx, train.DataParallel); return err },
		"fig12":    func() error { _, err := Fig12(ctx); return err },
		"fig13":    func() error { _, _, err := Fig13(ctx, train.DataParallel); return err },
		"fig14":    func() error { _, err := Fig14(ctx); return err },
		"headline": func() error { _, err := RunHeadline(ctx); return err },
		"sens":     func() error { _, err := Sensitivity(ctx); return err },
		"scale":    func() error { _, err := Scalability(ctx); return err },
		"explore":  func() error { _, err := Explore(ctx, []int{6}, []float64{25}); return err },
		"plane":    func() error { _, err := ScaleOutRows(ctx, "VGG-E", []int{1, 2}, false); return err },
		"plane-compare": func() error {
			_, err := ScaleOutCompare(ctx, "VGG-E", []int{1, 2}, nil)
			return err
		},
		"transformer": func() error {
			_, err := TransformerSweep(ctx, []string{"BERT-Large"}, []int{128}, []train.Precision{train.FP16})
			return err
		},
		"attention-compress": func() error { _, err := AttentionCompress(ctx); return err },
		"run": func() error {
			_, err := RunReportFor(ctx, mustDesign("MC-DLA(B)"), "VGG-E", train.DataParallel, Batch, 0, train.FP16, Workers)
			return err
		},
	}
	for name, gen := range generators {
		err := gen()
		if err == nil {
			t.Errorf("%s: ran to completion on a cancelled context", name)
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: returned %v, want context.Canceled", name, err)
		}
	}
}
