package dnn

import "fmt"

// Kind enumerates the layer types the simulator's cost model distinguishes.
type Kind int

const (
	// Input is the training-data source pseudo-layer.
	Input Kind = iota
	// Conv is a 2-D convolution.
	Conv
	// FC is a fully-connected (inner-product) layer.
	FC
	// Pool is max or average spatial pooling.
	Pool
	// GlobalPool reduces H×W to 1×1.
	GlobalPool
	// ReLU is a rectified-linear activation.
	ReLU
	// Tanh is a hyperbolic-tangent activation.
	Tanh
	// Sigmoid is a logistic activation.
	Sigmoid
	// LRN is local response normalization (AlexNet/GoogLeNet).
	LRN
	// BatchNorm is batch normalization (ResNet).
	BatchNorm
	// Dropout zeroes a fraction of activations.
	Dropout
	// Softmax is the classifier output.
	Softmax
	// Concat joins producer outputs along the channel axis (GoogLeNet).
	Concat
	// Add sums producer outputs elementwise (ResNet shortcuts).
	Add
	// RNNCell is one timestep of a vanilla (tanh) recurrent cell.
	RNNCell
	// LSTMCell is one timestep of an LSTM cell.
	LSTMCell
	// GRUCell is one timestep of a GRU cell.
	GRUCell
	// Attention is a weightless batched matrix multiply of the attention
	// mechanism: either the QKᵀ score computation or the score×V context
	// gather, decomposed into one GEMM per head.
	Attention
	// LayerNorm is layer normalization (per-token, transformer blocks).
	LayerNorm
	// GELU is the Gaussian-error linear unit activation (transformer FFNs).
	GELU
)

var kindNames = map[Kind]string{
	Input: "input", Conv: "conv", FC: "fc", Pool: "pool", GlobalPool: "gpool",
	ReLU: "relu", Tanh: "tanh", Sigmoid: "sigmoid", LRN: "lrn",
	BatchNorm: "bn", Dropout: "dropout", Softmax: "softmax",
	Concat: "concat", Add: "add",
	RNNCell: "rnn-cell", LSTMCell: "lstm-cell", GRUCell: "gru-cell",
	Attention: "attention", LayerNorm: "ln", GELU: "gelu",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Major reports whether the kind counts as a "layer" in the paper's Table III
// sense (convolutional, fully-connected, recurrent timestep, or an attention
// matmul — the GEMM-class work units of a network).
func (k Kind) Major() bool {
	switch k {
	case Conv, FC, RNNCell, LSTMCell, GRUCell, Attention:
		return true
	default:
		return false
	}
}

// Expensive reports whether the layer's forward pass is costly enough that
// the memory manager stashes its inputs to the backing store rather than
// recomputing them during backprop. This is exactly the MXNet-style exception
// the paper adopts (§IV footnote 4): activation/pooling-class layers are
// recomputed, GEMM-class layers are stashed.
func (k Kind) Expensive() bool { return k.Major() }

// Stateful reports whether the layer owns trainable weights. Attention
// matmuls are weightless — the projections around them carry the parameters.
func (k Kind) Stateful() bool {
	switch k {
	case Conv, FC, RNNCell, LSTMCell, GRUCell, BatchNorm, LayerNorm:
		return true
	default:
		return false
	}
}

// GEMM describes a dense matrix multiply C[M×N] += A[M×K]·B[K×N]; the unit
// of work the device cost model maps onto its PE array.
type GEMM struct {
	M, N, K int64
}

// MACs reports the multiply-accumulate count of the GEMM.
func (g GEMM) MACs() int64 { return g.M * g.N * g.K }

// Layer is one node of a network DAG. Layers are created through a Builder,
// which performs shape inference and wires dependencies.
type Layer struct {
	ID   int
	Name string
	Kind Kind

	// Inputs lists producer layer IDs (in consumption order).
	Inputs []int
	// Out is the output feature-map shape.
	Out Shape

	// Convolution / pooling geometry (zero for other kinds).
	KH, KW, Stride, Pad int

	// GEMMs lists the forward-pass matrix multiplies of the layer (empty for
	// elementwise layers, whose cost is element-count driven).
	GEMMs []GEMM

	// WeightElems is the trainable parameter count touched by one forward
	// execution of this layer (recurrent cells re-read the shared weights
	// every timestep, so each cell carries the full count).
	WeightElems int64

	// WeightGroup names the parameter tensor this layer reads. Recurrent
	// cells across timesteps share one group; the group is what gets
	// all-reduced once per iteration under data-parallel training and what
	// counts once toward the model's memory footprint.
	WeightGroup string
	// groupLead marks the first layer, in topological order, to read
	// WeightGroup; the Builder sets it as it appends the layer.
	groupLead bool

	// StashExtraBytes is additional per-execution state that backpropagation
	// needs beyond the layer inputs (gate activations and cell states of
	// recurrent cells).
	StashExtraBytes int64

	// EwOps is the per-element operation count for elementwise layers
	// (used by the cost model's vector-pipeline estimate).
	EwOps int64
}

// WeightBytes reports the half-precision parameter bytes read per execution.
func (l *Layer) WeightBytes() int64 { return l.WeightElems * ElemBytes }

// GroupLead reports whether the layer is the first, in topological order,
// to read its weight group: the layer whose parameters count once toward
// the model's footprint, and whose backward pass — the group's last in
// reverse order — completes the group's gradients.
func (l *Layer) GroupLead() bool { return l.groupLead }

// MACs reports the total forward multiply-accumulates of the layer.
func (l *Layer) MACs() int64 {
	var total int64
	for _, g := range l.GEMMs {
		total += g.MACs()
	}
	return total
}

// OutBytes reports the output feature-map footprint.
func (l *Layer) OutBytes() int64 { return l.Out.Bytes() }

func (l *Layer) String() string {
	return fmt.Sprintf("%s[%d] %s -> %s", l.Name, l.ID, l.Kind, l.Out)
}
