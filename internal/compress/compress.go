// Package compress models the compressing-DMA engine of Rhu et al. (HPCA'18)
// that the §V-B sensitivity study applies to DC-DLA: CNN activations are
// ReLU-sparse, so a zero-value compressor shrinks the offloaded feature maps
// and alleviates the PCIe bottleneck. The paper reports an average 2.6×
// reduction in PCIe traffic for the four CNN workloads, which narrows the
// DC-DLA↔MC-DLA gap to 2.3×.
package compress

import (
	"fmt"

	"github.com/memcentric/mcdla/internal/dnn"
)

// LayerRatio estimates the compression factor cDMA achieves on one layer's
// output activations. ReLU outputs and the pooling/normalization layers fed
// by them carry the exploitable sparsity; GEMM-layer pre-activations and
// recurrent state (tanh/sigmoid-gated, dense) do not compress — and neither
// does anything a transformer stashes: softmaxed attention scores,
// LayerNorm'd tokens and GELU activations have essentially no exact zeros,
// so the zero-value compressor passes them through at 1.0×.
func LayerRatio(kind dnn.Kind) float64 {
	switch kind {
	case dnn.ReLU, dnn.Pool, dnn.LRN, dnn.Dropout:
		// Activation sparsity of mid-network CNN layers averages ≈60-70%
		// zeros; the zero-value compressor converts that into ≈2.8×.
		return 2.8
	case dnn.Conv, dnn.Input, dnn.Concat, dnn.Add, dnn.BatchNorm:
		// Conv outputs are pre-activation (dense); the data layer and
		// merge layers are dense too, but conv inputs in the stash are
		// usually post-ReLU tensors routed through the cases above.
		return 1.6
	case dnn.FC:
		return 1.3
	case dnn.Attention, dnn.LayerNorm, dnn.GELU, dnn.Softmax:
		// Dense by construction: attention probabilities are strictly
		// positive, normalization re-centres every element, and GELU's
		// smooth tail leaves near- but not exactly-zero values.
		return 1.0
	default:
		return 1.0
	}
}

// GraphRatio reports the stash-weighted compression factor for a network:
// compressed stash traffic = StashBytes / GraphRatio. Sequence (transformer)
// graphs are honest 1.0×: every tensor on their stash path is dense — the
// FC-kind projections there produce pre-attention Q/K/V and FFN tensors, not
// the sparse post-ReLU maps the per-kind CNN table models — so the cDMA
// escape hatch that rescues DC-DLA on CNNs does not exist for the attention
// era, and the DC-DLA↔MC-DLA gap survives the compressor.
func GraphRatio(g *dnn.Graph) float64 {
	var raw, compressed float64
	seen := make(map[int]bool)
	for _, l := range g.Layers {
		if !l.Kind.Expensive() {
			continue
		}
		for _, in := range l.Inputs {
			if seen[in] {
				continue
			}
			seen[in] = true
			b := float64(g.Layers[in].OutBytes())
			raw += b
			ratio := LayerRatio(g.Layers[in].Kind)
			if g.SeqLen > 0 {
				ratio = 1.0
			}
			compressed += b / ratio
		}
		if l.StashExtraBytes > 0 {
			b := float64(l.StashExtraBytes)
			raw += b
			compressed += b // recurrent gate state is dense
		}
	}
	if compressed == 0 {
		return 1
	}
	ratio := raw / compressed
	if ratio < 1 {
		panic(fmt.Sprintf("compress: ratio %g below 1 for %s", ratio, g.Name))
	}
	return ratio
}
