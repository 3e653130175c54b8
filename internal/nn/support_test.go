package nn

import (
	"fmt"
	"math"

	"hpnn/internal/rng"
	"hpnn/internal/tensor"
)

// Test support: accessors and allocating forms that only the tests call.
// Training runs through the Into forms and the optimizers.

// InitXavier applies Xavier-normal initialization (std = sqrt(1/fanIn)).
func (d *Dense) InitXavier(r *rng.Rand) *Dense {
	d.W.Value.FillNorm(r, 0, sqrt(1/float64(d.In)))
	d.B.Value.Zero()
	return d
}

// ZeroGrad clears every parameter gradient.
func (n *Network) ZeroGrad() {
	for _, p := range n.Params() {
		p.ZeroGrad()
	}
}

// Summary returns a human-readable multi-line description of the network.
func (n *Network) Summary() string {
	s := ""
	for i, l := range n.Layers {
		s += fmt.Sprintf("%2d: %s\n", i, l.Name())
	}
	s += fmt.Sprintf("trainable parameters: %d\n", n.ParamCount())
	return s
}

// Loss returns the mean cross-entropy of logits [N, K] against integer
// labels, plus dLoss/dLogits ready for Network.Backward.
func (s SoftmaxCrossEntropy) Loss(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	return s.LossInto(nil, logits, labels)
}

// Probabilities returns the softmax distribution for each row of logits.
func (SoftmaxCrossEntropy) Probabilities(logits *tensor.Tensor) *tensor.Tensor {
	n, k := logits.Shape[0], logits.Shape[1]
	out := tensor.New(n, k)
	for i := 0; i < n; i++ {
		row := logits.Data[i*k : (i+1)*k]
		o := out.Data[i*k : (i+1)*k]
		maxV := math.Inf(-1)
		for _, v := range row {
			if v > maxV {
				maxV = v
			}
		}
		sum := 0.0
		for j, v := range row {
			e := math.Exp(v - maxV)
			o[j] = e
			sum += e
		}
		for j := range o {
			o[j] /= sum
		}
	}
	return out
}

// Loss returns the cost and dLoss/dOutput for predictions and targets of
// identical shape [N, K].
func (m MSE) Loss(pred, target *tensor.Tensor) (float64, *tensor.Tensor) {
	return m.LossInto(nil, pred, target)
}
