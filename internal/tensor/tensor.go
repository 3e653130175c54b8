// Package tensor implements the dense numerical arrays and kernels that the
// HPNN neural-network framework is built on: row-major float64 tensors,
// parallel matrix multiplication, im2col/col2im convolution lowering,
// pooling helpers and elementwise/reduction utilities.
//
// The package is deliberately small and allocation-conscious rather than
// general: it supports exactly what CNN training requires. All kernels are
// pure Go (stdlib only) and deterministic.
package tensor

import (
	"fmt"
	"math"

	"hpnn/internal/rng"
)

// Tensor is a dense row-major array of float64 values.
//
// Shape is the dimension list (e.g. [N, C, H, W] for an image batch); Data
// holds len = prod(Shape) values. Tensors share no hidden state: two tensors
// alias only if their Data slices alias.
type Tensor struct {
	Shape []int
	Data  []float64
}

// New returns a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float64, Prod(shape))}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); it panics if the length does not match the shape.
func FromSlice(data []float64, shape ...int) *Tensor {
	if len(data) != Prod(shape) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), shape))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// Prod returns the product of dims (1 for an empty list).
func Prod(dims []int) int {
	p := 1
	for _, d := range dims {
		if d < 0 {
			// Format only the offending int: interpolating dims itself
			// would leak the slice and force every variadic shape at every
			// call site onto the heap.
			panic(fmt.Sprintf("tensor: negative dimension %d", d))
		}
		p *= d
	}
	return p
}

// Len returns the number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a tensor sharing t's data with a new shape of equal size.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	if Prod(shape) != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v", t.Shape, len(t.Data), shape))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 {
	return t.Data[t.offset(idx)]
}

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.Shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Zero resets every element to 0.
func (t *Tensor) Zero() { t.Fill(0) }

// FillNorm fills t with N(mean, std) variates from r.
func (t *Tensor) FillNorm(r *rng.Rand, mean, std float64) {
	for i := range t.Data {
		t.Data[i] = r.NormScaled(mean, std)
	}
}

// FillUniform fills t with uniform [lo, hi) variates from r.
func (t *Tensor) FillUniform(r *rng.Rand, lo, hi float64) {
	for i := range t.Data {
		t.Data[i] = r.Range(lo, hi)
	}
}

// AddScaled computes t += alpha * other (elementwise, equal sizes).
func (t *Tensor) AddScaled(alpha float64, other *Tensor) {
	if len(t.Data) != len(other.Data) {
		panic("tensor: AddScaled size mismatch")
	}
	for i, v := range other.Data {
		t.Data[i] += alpha * v
	}
}

// Scale computes t *= alpha.
func (t *Tensor) Scale(alpha float64) {
	for i := range t.Data {
		t.Data[i] *= alpha
	}
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v
	}
	return s
}

// MaxAbs returns the maximum absolute element value (0 for empty tensors).
func (t *Tensor) MaxAbs() float64 {
	m := 0.0
	for _, v := range t.Data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// L2Norm returns the Euclidean norm of the flattened tensor.
func (t *Tensor) L2Norm() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Equal reports whether a and b have identical shapes and elementwise values
// within tol.
//
//hpnn:allow(unused) test fixture: tests in six packages compare tensors with it
func Equal(a, b *Tensor, tol float64) bool {
	if len(a.Shape) != len(b.Shape) {
		return false
	}
	for i := range a.Shape {
		if a.Shape[i] != b.Shape[i] {
			return false
		}
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// Argmax returns the index of the largest value in v (first on ties).
func Argmax(v []float64) int {
	best, bestIdx := math.Inf(-1), 0
	for i, x := range v {
		if x > best {
			best, bestIdx = x, i
		}
	}
	return bestIdx
}

// String renders a compact description, used in error messages and debugging.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v", t.Shape)
}
