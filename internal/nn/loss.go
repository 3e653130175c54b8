package nn

import (
	"fmt"
	"math"

	"hpnn/internal/tensor"
)

// SoftmaxCrossEntropy combines a softmax over class logits with the
// cross-entropy loss, averaged over the batch. It is the training loss for
// all classification experiments.
type SoftmaxCrossEntropy struct{}

// LossInto returns the mean cross-entropy of logits [N, K] against integer
// labels, plus dLoss/dLogits ready for Network.Backward. The gradient is
// written into grad (resized in place; allocated when nil). Training loops
// keep one gradient buffer alive across steps, so the loss stage costs no
// allocations after warmup.
func (s SoftmaxCrossEntropy) LossInto(grad *tensor.Tensor, logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	return s.LossScaledInto(grad, logits, labels, 1/float64(logits.Shape[0]))
}

// LossScaledInto is LossInto with an explicit averaging factor instead of the
// implied 1/batch: both the returned loss and the gradient are the per-row
// sums multiplied by invN. The data-parallel trainer passes 1/fullBatch while
// feeding micro-shards, so shard losses and gradients sum to exactly the
// full-batch quantities; trigger-set watermark hooks pass λ/len(trigger).
// LossInto delegates here with invN = 1/n, so the expressions below are the
// single (bitwise-pinned) softmax-CE implementation.
func (SoftmaxCrossEntropy) LossScaledInto(grad *tensor.Tensor, logits *tensor.Tensor, labels []int, invN float64) (float64, *tensor.Tensor) {
	n, k := logits.Shape[0], logits.Shape[1]
	if len(labels) != n {
		panic(fmt.Sprintf("nn: %d labels for batch of %d", len(labels), n))
	}
	grad = tensor.EnsureShape(grad, n, k)
	total := 0.0
	for i := 0; i < n; i++ {
		row := logits.Data[i*k : (i+1)*k]
		g := grad.Data[i*k : (i+1)*k]
		maxV := math.Inf(-1)
		for _, v := range row {
			if v > maxV {
				maxV = v
			}
		}
		sum := 0.0
		for j, v := range row {
			e := math.Exp(v - maxV)
			g[j] = e
			sum += e
		}
		label := labels[i]
		if label < 0 || label >= k {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", label, k))
		}
		p := g[label] / sum
		total += -math.Log(math.Max(p, 1e-300))
		for j := range g {
			g[j] = (g[j]/sum - oneHot(j, label)) * invN
		}
	}
	return total * invN, grad
}

func oneHot(j, label int) float64 {
	if j == label {
		return 1
	}
	return 0
}

// MSE is the mean-squared-error cost of the paper's Section III-C,
// E = ½ Σ_j (t_j - out_j)², summed over outputs and averaged over the batch.
// The key-dependent delta rule (Eq. 4) is derived for this loss; it is used
// by the Theorem 1 experiments.
//
//hpnn:allow(unused) the Theorem 1 loss; core's TestTheorem1 trains with it
type MSE struct{}

// LossInto returns the loss of pred against target and dLoss/dPred,
// written into grad (resized in place; allocated when nil).
//
//hpnn:allow(unused) the Theorem 1 loss; core's TestTheorem1 trains with it
func (MSE) LossInto(grad *tensor.Tensor, pred, target *tensor.Tensor) (float64, *tensor.Tensor) {
	if pred.Len() != target.Len() {
		panic("nn: MSE shape mismatch")
	}
	n := pred.Shape[0]
	invN := 1 / float64(n)
	grad = tensor.EnsureShape(grad, pred.Shape...)
	total := 0.0
	for i := range pred.Data {
		d := pred.Data[i] - target.Data[i]
		total += 0.5 * d * d
		grad.Data[i] = d * invN
	}
	return total * invN, grad
}
