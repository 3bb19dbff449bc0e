package compress

import (
	"testing"

	"github.com/memcentric/mcdla/internal/dnn"
)

func TestCNNRatiosNearPaper(t *testing.T) {
	// The paper reports an average 2.6× PCIe-traffic reduction on the four
	// CNN workloads; our per-layer model must land in that neighbourhood.
	var sum float64
	for _, name := range dnn.CNNNames() {
		g := dnn.MustBuild(name, 64)
		r := GraphRatio(g)
		if r < 1.2 || r > 3.5 {
			t.Errorf("%s: compression ratio %.2f outside plausible band", name, r)
		}
		sum += r
	}
	avg := sum / 4
	if avg < 1.7 || avg > 3.2 {
		t.Fatalf("average CNN ratio = %.2f, want ≈2.6", avg)
	}
}

func TestRNNStateDoesNotCompress(t *testing.T) {
	// Recurrent gate state is dense: RNN ratios must stay near 1.
	for _, name := range []string{"RNN-GEMV", "RNN-LSTM-1", "RNN-LSTM-2", "RNN-GRU"} {
		g := dnn.MustBuild(name, 64)
		if r := GraphRatio(g); r > 1.3 {
			t.Errorf("%s: ratio %.2f — recurrent stash should barely compress", name, r)
		}
	}
}

func TestLayerRatios(t *testing.T) {
	if LayerRatio(dnn.ReLU) <= LayerRatio(dnn.Conv) {
		t.Fatal("post-activation tensors must compress better than dense conv outputs")
	}
	if LayerRatio(dnn.LSTMCell) != 1.0 {
		t.Fatal("recurrent cells must not compress")
	}
	if LayerRatio(dnn.FC) < 1.0 {
		t.Fatal("ratios must never be below 1")
	}
}

func TestRatioScaleInvariantInBatch(t *testing.T) {
	a := GraphRatio(dnn.MustBuild("VGG-E", 16))
	b := GraphRatio(dnn.MustBuild("VGG-E", 64))
	if a != b {
		t.Fatalf("ratio depends on batch: %g vs %g", a, b)
	}
}

func TestAttentionDoesNotCompress(t *testing.T) {
	// The compressing-DMA escape hatch must vanish on the transformer
	// workloads: dense attention tensors yield an honest 1.0×.
	for _, name := range dnn.TransformerNames() {
		g := dnn.MustBuild(name, 8)
		if r := GraphRatio(g); r != 1.0 {
			t.Errorf("%s: ratio %.3f, want exactly 1.0 — attention stashes are dense", name, r)
		}
	}
	for _, kind := range []dnn.Kind{dnn.Attention, dnn.LayerNorm, dnn.GELU, dnn.Softmax} {
		if LayerRatio(kind) != 1.0 {
			t.Errorf("LayerRatio(%v) = %g, want 1.0", kind, LayerRatio(kind))
		}
	}
}

func TestSeqLenRatioStaysAtOne(t *testing.T) {
	// The honest ratio holds across the seqlen axis — longer sequences grow
	// the score tensors but never manufacture sparsity.
	for _, seqlen := range []int{128, 512, 1024} {
		g, err := dnn.BuildSeq("GPT-2", 4, seqlen)
		if err != nil {
			t.Fatal(err)
		}
		if r := GraphRatio(g); r != 1.0 {
			t.Errorf("GPT-2 seq %d: ratio %.3f, want 1.0", seqlen, r)
		}
	}
}
