// Package tensor implements dense float32 tensors and the linear-algebra
// kernels (GEMM, GEMV, axpy) that underpin the neural-network operators
// in internal/nn.
//
// All model parameters and activations in the paper's benchmark are fp32
// ("All data and model parameters are stored in fp32 format", §IV), so
// float32 is the only element type. Tensors are row-major and contiguous.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense, row-major float32 tensor.
type Tensor struct {
	shape []int
	data  []float32
}

// New returns a zero-filled tensor with the given shape. It panics on a
// negative dimension or an empty shape.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: make([]float32, n)}
}

// FromSlice wraps data in a tensor of the given shape without copying.
// It panics if len(data) does not match the shape volume.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (volume %d)", len(data), shape, n))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: data}
}

func checkShape(shape []int) int {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", shape))
		}
		n *= d
	}
	return n
}

// Shape returns the tensor's dimensions. The returned slice must not be
// modified.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the backing slice (row-major). Mutations are visible to
// the tensor.
func (t *Tensor) Data() []float32 { return t.data }

// At returns the element at the given indices (rank must match).
func (t *Tensor) At(idx ...int) float32 {
	return t.data[t.offset(idx)]
}

// Set stores v at the given indices.
func (t *Tensor) Set(v float32, idx ...int) {
	t.data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: %d indices for rank-%d tensor", len(idx), len(t.shape)))
	}
	off := 0
	for i, ix := range idx {
		if ix < 0 || ix >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range [0,%d) in dim %d", ix, t.shape[i], i))
		}
		off = off*t.shape[i] + ix
	}
	return off
}

// Row returns row i of a rank-2 tensor as a slice sharing storage.
func (t *Tensor) Row(i int) []float32 {
	if len(t.shape) != 2 {
		panic("tensor: Row requires a rank-2 tensor")
	}
	cols := t.shape[1]
	return t.data[i*cols : (i+1)*cols]
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Equal reports whether two tensors have identical shape and elements
// within tolerance eps.
func Equal(a, b *Tensor, eps float32) bool {
	if a.Rank() != b.Rank() {
		return false
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] {
			return false
		}
	}
	for i := range a.data {
		if diff := a.data[i] - b.data[i]; diff > eps || diff < -eps {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute element-wise difference
// between two tensors of identical shape.
func MaxAbsDiff(a, b *Tensor) float32 {
	var m float32
	for i := range a.data {
		d := float32(math.Abs(float64(a.data[i] - b.data[i])))
		if d > m {
			m = d
		}
	}
	return m
}
