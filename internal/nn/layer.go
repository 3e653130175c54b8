// Package nn is a from-scratch CPU neural-network training framework: the
// substrate the HPNN reproduction trains its convolutional networks with.
//
// It provides the layers needed by the paper's architectures (CNN1/2/3 and
// ResNet-18): convolution (via im2col GEMM), dense, ReLU-family activations,
// max/average pooling, batch normalization, dropout, residual blocks — plus
// the Lock layer, which implements the paper's neuron-locking transform
// out_j = f(L_j · MAC_j) and its key-dependent backpropagation rule.
//
// Conventions: activations flow as tensors whose first dimension is the
// batch (either [N, D] or [N, C, H, W]); Backward receives dLoss/dOutput and
// returns dLoss/dInput while accumulating parameter gradients into Param.Grad.
package nn

import "hpnn/internal/tensor"

// Param is a trainable parameter with its gradient accumulator.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// NewParam allocates a parameter (and its gradient) with the given shape.
func NewParam(name string, shape ...int) *Param {
	return &Param{Name: name, Value: tensor.New(shape...), Grad: tensor.New(shape...)}
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Layer is a differentiable network stage.
//
// Buffer-reuse contract: every layer owns its forward/backward scratch —
// output, input-gradient and any lowering buffers — sized lazily on the
// first batch and reused verbatim while the input shape is stable. A shape
// change (e.g. the short final batch of an epoch) resizes the scratch in
// place, retaining capacity, so cycling between batch sizes settles into a
// steady state with zero allocations per step.
//
// Consequently the tensors returned by Forward and Backward are views into
// layer-owned storage: they are valid until the layer's next Forward or
// Backward call, and callers that need the values beyond that must Clone.
// The training loop, attack loops and accelerator never do — each pass
// fully consumes the previous pass's views — which is what makes the whole
// compute path allocation-free after warmup.
type Layer interface {
	// Name identifies the layer in diagnostics and serialization.
	Name() string
	// Forward computes the layer output for a batch. train selects
	// training-mode behaviour (dropout masks, batch statistics). The
	// result is layer-owned scratch, overwritten by the next call.
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward consumes dLoss/dOutput of the most recent Forward and
	// returns dLoss/dInput, accumulating parameter gradients. The result
	// is layer-owned scratch, overwritten by the next call.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's trainable parameters (nil if none), in a
	// deterministic order used by optimizers and serialization.
	Params() []*Param
}

// Network is an ordered sequence of layers trained end-to-end.
type Network struct {
	Layers []Layer

	// paramsCache memoizes Params(); it is invalidated when the layer count
	// changes, so builders that append layers after a Params call stay
	// correct. Gathered once, it keeps per-step optimizer walks free of
	// slice growth.
	paramsCache  []*Param
	paramsLayers int
}

// NewNetwork builds a network from the given layers.
func NewNetwork(layers ...Layer) *Network {
	return &Network{Layers: layers}
}

// Forward runs the batch through every layer in order.
//
//hpnn:noalloc
func (n *Network) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range n.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward propagates the loss gradient through the layers in reverse.
//
//hpnn:noalloc
func (n *Network) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		grad = n.Layers[i].Backward(grad)
	}
	return grad
}

// Params returns all trainable parameters in layer order. The slice is
// memoized — callers must not append to or reorder it.
func (n *Network) Params() []*Param {
	if n.paramsCache != nil && n.paramsLayers == len(n.Layers) {
		return n.paramsCache
	}
	ps := []*Param{}
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	n.paramsCache, n.paramsLayers = ps, len(n.Layers)
	return ps
}

// ParamCount returns the total number of trainable scalars.
func (n *Network) ParamCount() int {
	c := 0
	for _, p := range n.Params() {
		c += p.Value.Len()
	}
	return c
}

// Locks returns every Lock layer in the network, in forward order,
// descending into residual blocks. The HPNN key schedule uses this to
// assign key bits to neurons.
func (n *Network) Locks() []*Lock {
	var locks []*Lock
	for _, l := range n.Layers {
		locks = append(locks, collectLocks(l)...)
	}
	return locks
}

func collectLocks(l Layer) []*Lock {
	switch v := l.(type) {
	case *Lock:
		return []*Lock{v}
	case *Residual:
		var out []*Lock
		out = append(out, v.Body.Locks()...)
		if v.Skip != nil {
			out = append(out, v.Skip.Locks()...)
		}
		out = append(out, v.Post.Locks()...)
		return out
	default:
		return nil
	}
}
