// Package dnn models deep neural networks at the level the mcdla simulator
// needs: layer shapes, parameter and feature-map byte counts, compute (MAC)
// requirements, and the data-dependency DAG that the virtual-memory runtime
// analyzes at "compile time" (§II-B of the paper). It also ships builders for
// the paper's eight benchmark workloads (Table III).
package dnn

import "fmt"

// ElemBytes is the storage size of one tensor element. The evaluation
// models mixed-precision training — the period-accurate mode for the V100
// tensor-core class device of Table II (its 1024×125 MAC organization mirrors
// the 125 TFLOPS fp16 peak) — so weights, activations and gradients are
// stored as 2-byte halves.
const ElemBytes = 2

// Shape is a tensor shape in NCHW layout for convolutional tensors, or
// (N, C) with H=W=1 for fully-connected / recurrent activations.
type Shape struct {
	N int // batch
	C int // channels / features
	H int // height
	W int // width
}

// MakeVec is a convenience constructor for (batch, features) tensors.
func MakeVec(n, c int) Shape { return Shape{N: n, C: c, H: 1, W: 1} }

// Elems reports the number of elements in the shape.
func (s Shape) Elems() int64 {
	return int64(s.N) * int64(s.C) * int64(s.H) * int64(s.W)
}

// Bytes reports the storage footprint (ElemBytes per element) of the shape.
func (s Shape) Bytes() int64 { return s.Elems() * ElemBytes }

// Valid reports whether every dimension is positive.
func (s Shape) Valid() bool { return s.N > 0 && s.C > 0 && s.H > 0 && s.W > 0 }

func (s Shape) String() string {
	if s.H == 1 && s.W == 1 {
		return fmt.Sprintf("(%d,%d)", s.N, s.C)
	}
	return fmt.Sprintf("(%d,%d,%d,%d)", s.N, s.C, s.H, s.W)
}
