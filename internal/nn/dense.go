package nn

import (
	"fmt"

	"hpnn/internal/rng"
	"hpnn/internal/tensor"
)

// Dense is a fully-connected layer: y = x·Wᵀ + b with x of shape [N, In].
type Dense struct {
	In, Out int
	W       *Param // [Out, In]
	B       *Param // [Out]

	lastX *tensor.Tensor
	// Layer-owned scratch: output, input gradient and the weight-gradient
	// staging buffer, reused across steps while the batch shape is stable.
	y, dx, dW *tensor.Tensor
}

// NewDense constructs a dense layer with zero-initialized parameters.
// Use InitHe/InitXavier (or Network initializers) to randomize weights.
func NewDense(in, out int) *Dense {
	return &Dense{
		In:  in,
		Out: out,
		W:   NewParam(fmt.Sprintf("dense_%dx%d.W", out, in), out, in),
		B:   NewParam(fmt.Sprintf("dense_%dx%d.B", out, in), out),
	}
}

// Name implements Layer.
func (d *Dense) Name() string { return fmt.Sprintf("Dense(%d→%d)", d.In, d.Out) }

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// InitHe applies He-normal initialization (std = sqrt(2/fanIn)), the
// standard choice ahead of ReLU activations.
func (d *Dense) InitHe(r *rng.Rand) *Dense {
	d.W.Value.FillNorm(r, 0, sqrt(2/float64(d.In)))
	d.B.Value.Zero()
	return d
}

// Forward implements Layer.
//
//hpnn:noalloc
func (d *Dense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if len(x.Shape) != 2 || x.Shape[1] != d.In {
		panic(fmt.Sprintf("nn: Dense expects [N,%d], got %v", d.In, x.Shape))
	}
	d.lastX = x
	n := x.Shape[0]
	d.y = tensor.EnsureShape(d.y, n, d.Out)
	tensor.MatMulNTInto(d.y, x, d.W.Value) // [N, Out]
	tensor.AddRowBroadcast(d.y, d.B.Value.Data)
	return d.y
}

// Backward implements Layer.
//
//hpnn:noalloc
func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n := grad.Shape[0]
	// dW = gradᵀ·x  ([Out,N]·[N,In])
	d.dW = tensor.EnsureShape(d.dW, d.Out, d.In)
	tensor.MatMulTNInto(d.dW, grad, d.lastX)
	d.W.Grad.AddScaled(1, d.dW)
	// dB = column sums of grad
	tensor.AddColSums(d.B.Grad.Data, grad)
	// dX = grad·W  ([N,Out]·[Out,In])
	d.dx = tensor.EnsureShape(d.dx, n, d.In)
	return tensor.MatMulInto(d.dx, grad, d.W.Value)
}
