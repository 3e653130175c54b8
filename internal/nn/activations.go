package nn

import (
	"math"

	"hpnn/internal/tensor"
)

func sqrt(x float64) float64 { return math.Sqrt(x) }

// ReLU is the rectified linear activation max(0, x).
//
// In the HPNN framework every ReLU is preceded by a Lock layer: the paper
// locks exactly the neurons "belonging to nonlinear layers", i.e. the
// pre-activation values feeding each ReLU.
type ReLU struct {
	lastIn *tensor.Tensor
	y, dx  *tensor.Tensor // layer-owned scratch, resized on shape change
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Name implements Layer.
func (r *ReLU) Name() string { return "ReLU" }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Forward implements Layer.
//
//hpnn:noalloc
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	r.lastIn = x
	r.y = tensor.EnsureShape(r.y, x.Shape...)
	for i, v := range x.Data {
		if v > 0 {
			r.y.Data[i] = v
		} else {
			r.y.Data[i] = 0
		}
	}
	return r.y
}

// Backward implements Layer.
//
//hpnn:noalloc
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	r.dx = tensor.EnsureShape(r.dx, grad.Shape...)
	for i, v := range r.lastIn.Data {
		if v > 0 {
			r.dx.Data[i] = grad.Data[i]
		} else {
			r.dx.Data[i] = 0
		}
	}
	return r.dx
}

// Sigmoid is the logistic activation 1/(1+e^-x). It is used by the
// Theorem 1 single-layer delta-rule experiments.
type Sigmoid struct {
	lastOut *tensor.Tensor
	dx      *tensor.Tensor
}

// NewSigmoid returns a Sigmoid activation layer.
//
//hpnn:allow(unused) core's TestTheorem1 builds the paper's sigmoid neuron with it
func NewSigmoid() *Sigmoid { return &Sigmoid{} }

// Name implements Layer.
func (s *Sigmoid) Name() string { return "Sigmoid" }

// Params implements Layer.
func (s *Sigmoid) Params() []*Param { return nil }

// Forward implements Layer.
//
//hpnn:noalloc
func (s *Sigmoid) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	s.lastOut = tensor.EnsureShape(s.lastOut, x.Shape...)
	for i, v := range x.Data {
		s.lastOut.Data[i] = 1 / (1 + math.Exp(-v))
	}
	return s.lastOut
}

// Backward implements Layer.
//
//hpnn:noalloc
func (s *Sigmoid) Backward(grad *tensor.Tensor) *tensor.Tensor {
	s.dx = tensor.EnsureShape(s.dx, grad.Shape...)
	for i, o := range s.lastOut.Data {
		s.dx.Data[i] = grad.Data[i] * o * (1 - o)
	}
	return s.dx
}

// Flatten reshapes [N, C, H, W] (or any rank ≥ 2) batches to [N, D].
type Flatten struct {
	lastShape []int
	// Reshape views are cached headers over the caller's data — rebuilding
	// them in place keeps Forward/Backward allocation-free.
	fwdView, bwdView tensor.Tensor
}

// NewFlatten returns a Flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Name implements Layer.
func (f *Flatten) Name() string { return "Flatten" }

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// Forward implements Layer.
//
//hpnn:noalloc
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	f.lastShape = append(f.lastShape[:0], x.Shape...)
	n := x.Shape[0]
	return tensor.ViewInto(&f.fwdView, x.Data, n, x.Len()/n)
}

// Backward implements Layer.
//
//hpnn:noalloc
func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return tensor.ViewInto(&f.bwdView, grad.Data, f.lastShape...)
}
