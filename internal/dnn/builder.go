package dnn

import (
	"fmt"
	"slices"
)

// Builder constructs a Graph with shape inference. Every method returns the
// new layer's ID so networks read as straight-line code; invalid wiring
// panics immediately (builders run at configuration time, not simulation
// time, so failing fast is the right behaviour).
type Builder struct {
	g *Graph
	// cellGroups lists the recurrent weight groups a cell already reads.
	cellGroups []string
	// perHead holds the attention layers' per-head GEMM lists, one per
	// geometry, shared read-only by every layer of that geometry.
	perHead [][]GEMM
}

// NewBuilder starts a graph for the given benchmark name and batch size.
func NewBuilder(name string, batch int) *Builder {
	if batch <= 0 {
		panic(fmt.Sprintf("dnn: batch %d must be positive", batch))
	}
	return &Builder{g: &Graph{Name: name, Batch: batch}}
}

// add appends l. A layer that reads a weight group leads it: every group
// but a recurrent cell's is named after its one layer, and cell marks the
// later cells of a shared group.
func (b *Builder) add(l *Layer) int {
	l.ID = len(b.g.Layers)
	l.groupLead = l.WeightGroup != ""
	b.g.Layers = append(b.g.Layers, l)
	return l.ID
}

func (b *Builder) shape(id int) Shape { return b.g.Layer(id).Out }

// Input declares the training-data source.
func (b *Builder) Input(c, h, w int) int {
	return b.add(&Layer{
		Name: "data", Kind: Input,
		Out: Shape{N: b.g.Batch, C: c, H: h, W: w},
	})
}

// InputVec declares a (batch, features) data source for recurrent networks.
func (b *Builder) InputVec(features int) int {
	return b.add(&Layer{
		Name: "data", Kind: Input,
		Out: MakeVec(b.g.Batch, features),
	})
}

// InputSeq declares a (batch, dModel, seqlen) token-embedding source for
// transformer networks: C carries the model width, H the sequence axis.
func (b *Builder) InputSeq(dModel, seqlen int) int {
	return b.add(&Layer{
		Name: "tokens", Kind: Input,
		Out: Shape{N: b.g.Batch, C: dModel, H: seqlen, W: 1},
	})
}

func convOut(in, k, stride, pad int) int {
	out := (in+2*pad-k)/stride + 1
	if out <= 0 {
		panic(fmt.Sprintf("dnn: conv geometry in=%d k=%d s=%d p=%d yields %d", in, k, stride, pad, out))
	}
	return out
}

// Conv adds a 2-D convolution with square kernels.
func (b *Builder) Conv(name string, in, outC, k, stride, pad int) int {
	s := b.shape(in)
	oh := convOut(s.H, k, stride, pad)
	ow := convOut(s.W, k, stride, pad)
	gemm := GEMM{
		M: int64(s.N) * int64(oh) * int64(ow),
		N: int64(outC),
		K: int64(s.C) * int64(k) * int64(k),
	}
	return b.add(&Layer{
		Name: name, Kind: Conv, Inputs: []int{in},
		Out:         Shape{N: s.N, C: outC, H: oh, W: ow},
		GEMMs:       []GEMM{gemm},
		WeightElems: int64(outC) * int64(s.C) * int64(k) * int64(k),
		WeightGroup: name,
	})
}

// FC adds a fully-connected layer; the input is flattened.
func (b *Builder) FC(name string, in, outC int) int {
	s := b.shape(in)
	inFeat := int64(s.C) * int64(s.H) * int64(s.W)
	return b.add(&Layer{
		Name: name, Kind: FC, Inputs: []int{in},
		Out:         MakeVec(s.N, outC),
		GEMMs:       []GEMM{{M: int64(s.N), N: int64(outC), K: inFeat}},
		WeightElems: inFeat * int64(outC),
		WeightGroup: name,
	})
}

// Pool adds a spatial pooling layer.
func (b *Builder) Pool(name string, in, k, stride, pad int) int {
	s := b.shape(in)
	oh := convOut(s.H, k, stride, pad)
	ow := convOut(s.W, k, stride, pad)
	return b.add(&Layer{
		Name: name, Kind: Pool, Inputs: []int{in},
		Out:   Shape{N: s.N, C: s.C, H: oh, W: ow},
		EwOps: int64(k) * int64(k),
	})
}

// GlobalPool reduces the spatial dimensions to 1×1.
func (b *Builder) GlobalPool(name string, in int) int {
	s := b.shape(in)
	return b.add(&Layer{
		Name: name, Kind: GlobalPool, Inputs: []int{in},
		Out:   Shape{N: s.N, C: s.C, H: 1, W: 1},
		EwOps: int64(s.H) * int64(s.W),
	})
}

func (b *Builder) elementwise(name string, kind Kind, in int, ops int64) int {
	s := b.shape(in)
	return b.add(&Layer{Name: name, Kind: kind, Inputs: []int{in}, Out: s, EwOps: ops})
}

// ReLU adds a rectified-linear activation.
func (b *Builder) ReLU(name string, in int) int { return b.elementwise(name, ReLU, in, 1) }

// LRN adds local response normalization.
func (b *Builder) LRN(name string, in int) int { return b.elementwise(name, LRN, in, 8) }

// BatchNorm adds batch normalization. BN carries (small) trainable scale and
// shift parameters: 2 per channel.
func (b *Builder) BatchNorm(name string, in int) int {
	s := b.shape(in)
	return b.add(&Layer{
		Name: name, Kind: BatchNorm, Inputs: []int{in}, Out: s, EwOps: 4,
		WeightElems: 2 * int64(s.C),
		WeightGroup: name,
	})
}

// Dropout adds a dropout layer.
func (b *Builder) Dropout(name string, in int) int { return b.elementwise(name, Dropout, in, 1) }

// Softmax adds the classifier output layer.
func (b *Builder) Softmax(name string, in int) int { return b.elementwise(name, Softmax, in, 6) }

// Concat joins producers along the channel axis (all must agree on N, H, W).
func (b *Builder) Concat(name string, ins ...int) int {
	if len(ins) < 2 {
		panic("dnn: concat needs at least two inputs")
	}
	first := b.shape(ins[0])
	c := 0
	for _, in := range ins {
		s := b.shape(in)
		if s.N != first.N || s.H != first.H || s.W != first.W {
			panic(fmt.Sprintf("dnn: concat %q input shapes %v and %v disagree", name, first, s))
		}
		c += s.C
	}
	return b.add(&Layer{
		Name: name, Kind: Concat, Inputs: append([]int(nil), ins...),
		Out:   Shape{N: first.N, C: c, H: first.H, W: first.W},
		EwOps: 1,
	})
}

// Add sums two producers elementwise (residual shortcut).
func (b *Builder) Add(name string, a, c int) int {
	sa, sc := b.shape(a), b.shape(c)
	if sa != sc {
		panic(fmt.Sprintf("dnn: add %q input shapes %v and %v disagree", name, sa, sc))
	}
	return b.add(&Layer{
		Name: name, Kind: Add, Inputs: []int{a, c}, Out: sa, EwOps: 1,
	})
}

// SeqLinear adds a per-token dense projection over a (batch, features, seq)
// tensor: every token position runs through the same weight matrix, so the
// GEMM batches M = batch×seq rows instead of flattening the sequence the way
// FC would.
func (b *Builder) SeqLinear(name string, in, outF int) int {
	s := b.shape(in)
	if s.W != 1 {
		panic(fmt.Sprintf("dnn: seq-linear %q input %v is not a sequence tensor", name, s))
	}
	rows := int64(s.N) * int64(s.H)
	return b.add(&Layer{
		Name: name, Kind: FC, Inputs: []int{in},
		Out:         Shape{N: s.N, C: outF, H: s.H, W: 1},
		GEMMs:       []GEMM{{M: rows, N: int64(outF), K: int64(s.C)}},
		WeightElems: int64(s.C) * int64(outF),
		WeightGroup: name,
	})
}

// LayerNorm adds layer normalization with per-feature scale and shift.
func (b *Builder) LayerNorm(name string, in int) int {
	s := b.shape(in)
	return b.add(&Layer{
		Name: name, Kind: LayerNorm, Inputs: []int{in}, Out: s, EwOps: 8,
		WeightElems: 2 * int64(s.C),
		WeightGroup: name,
	})
}

// GELU adds a Gaussian-error linear unit activation.
func (b *Builder) GELU(name string, in int) int { return b.elementwise(name, GELU, in, 8) }

// AttentionScores adds the QKᵀ matmul of multi-head attention: one GEMM per
// head over the (batch, dModel, seq) query and key tensors, producing the
// (batch, heads, seq, seq) score tensor whose footprint grows quadratically
// with sequence length — the tensor class that breaks the CNN-era
// compressing-DMA escape hatch.
func (b *Builder) AttentionScores(name string, q, k, heads int) int {
	sq, sk := b.shape(q), b.shape(k)
	if sq != sk {
		panic(fmt.Sprintf("dnn: attention %q query %v and key %v disagree", name, sq, sk))
	}
	if heads <= 0 || sq.C%heads != 0 {
		panic(fmt.Sprintf("dnn: attention %q needs d_model %d divisible by positive heads %d", name, sq.C, heads))
	}
	headDim := int64(sq.C / heads)
	rows := int64(sq.N) * int64(sq.H)
	return b.add(&Layer{
		Name: name, Kind: Attention, Inputs: []int{q, k},
		Out:   Shape{N: sq.N, C: heads, H: sq.H, W: sq.H},
		GEMMs: b.heads(GEMM{M: rows, N: int64(sq.H), K: headDim}, heads),
		EwOps: 1, // 1/sqrt(d_head) scaling
	})
}

// AttentionContext adds the probs×V matmul: the softmaxed (batch, heads, seq,
// seq) score tensor gathers the value rows back into a (batch, dModel, seq)
// context tensor, one GEMM per head.
func (b *Builder) AttentionContext(name string, probs, v int) int {
	sp, sv := b.shape(probs), b.shape(v)
	heads := sp.C
	if sp.N != sv.N || sp.H != sp.W || sp.H != sv.H || sv.W != 1 {
		panic(fmt.Sprintf("dnn: attention %q probs %v and value %v disagree", name, sp, sv))
	}
	if heads <= 0 || sv.C%heads != 0 {
		panic(fmt.Sprintf("dnn: attention %q needs d_model %d divisible by %d heads", name, sv.C, heads))
	}
	headDim := int64(sv.C / heads)
	rows := int64(sv.N) * int64(sv.H)
	return b.add(&Layer{
		Name: name, Kind: Attention, Inputs: []int{probs, v},
		Out:   sv,
		GEMMs: b.heads(GEMM{M: rows, N: headDim, K: int64(sp.H)}, heads),
	})
}

// heads returns the list of n copies of gm, one GEMM per attention head:
// the builder's first list of that geometry, which every later layer of
// the geometry shares.
func (b *Builder) heads(gm GEMM, n int) []GEMM {
	for _, l := range b.perHead {
		if len(l) == n && l[0] == gm {
			return l
		}
	}
	l := make([]GEMM, n)
	for h := range l {
		l[h] = gm
	}
	b.perHead = append(b.perHead, l)
	return l
}

// recurrent cell geometry: the gate GEMM consumes the concatenation [x; h]
// (K = inFeat + hidden) and produces gates×hidden outputs.
func (b *Builder) cell(name string, kind Kind, in int, hidden, gates int, group string, stashVectors int) int {
	s := b.shape(in)
	inFeat := int64(s.C) * int64(s.H) * int64(s.W)
	k := inFeat + int64(hidden)
	lead := !slices.Contains(b.cellGroups, group)
	if lead {
		b.cellGroups = append(b.cellGroups, group)
	}
	id := b.add(&Layer{
		Name: name, Kind: kind, Inputs: []int{in},
		Out:             MakeVec(s.N, hidden),
		GEMMs:           []GEMM{{M: int64(s.N), N: int64(gates) * int64(hidden), K: k}},
		WeightElems:     k * int64(gates) * int64(hidden),
		WeightGroup:     group,
		StashExtraBytes: int64(s.N) * int64(stashVectors) * int64(hidden) * ElemBytes,
		EwOps:           int64(gates) * 4,
	})
	// Cells across timesteps share one group, led by the first.
	b.g.Layers[id].groupLead = lead
	return id
}

// RNNCell adds one vanilla-RNN timestep. Backward needs the pre-activation
// (1 hidden-sized vector per sample) beyond the cell input.
func (b *Builder) RNNCell(name string, in, hidden int, group string) int {
	return b.cell(name, RNNCell, in, hidden, 1, group, 1)
}

// LSTMCell adds one LSTM timestep. Backward needs the four gate activations
// plus cell state and its tanh (6 hidden-sized vectors per sample).
func (b *Builder) LSTMCell(name string, in, hidden int, group string) int {
	return b.cell(name, LSTMCell, in, hidden, 4, group, 6)
}

// GRUCell adds one GRU timestep. Backward needs the three gates plus the
// candidate state (4 hidden-sized vectors per sample).
func (b *Builder) GRUCell(name string, in, hidden int, group string) int {
	return b.cell(name, GRUCell, in, hidden, 3, group, 4)
}

// Finish validates and returns the graph.
func (b *Builder) Finish() *Graph {
	if err := b.g.Validate(); err != nil {
		panic(err)
	}
	return b.g
}

// FinishRecurrent validates and returns the graph, recording its timestep
// count for Table III accounting.
func (b *Builder) FinishRecurrent(timesteps int) *Graph {
	b.g.Timesteps = timesteps
	return b.Finish()
}

// FinishSeq validates and returns the graph, recording its sequence length
// (transformer workloads).
func (b *Builder) FinishSeq(seqlen int) *Graph {
	b.g.SeqLen = seqlen
	return b.Finish()
}
