package core

import (
	"testing"

	"hpnn/internal/nn"
	"hpnn/internal/rng"
	"hpnn/internal/tensor"
)

// TestTrainStepCNN1ZeroAllocSteadyState is the headline acceptance test of
// the workspace execution engine: one full training step of the Table I
// Fashion-MNIST network (forward, loss, backward, gradient clip, momentum
// update) at batch 16 performs zero heap allocations once every layer's
// scratch, the loss-gradient buffer, and the optimizer's velocity state have
// been allocated by a warmup step.
func TestTrainStepCNN1ZeroAllocSteadyState(t *testing.T) {
	m := MustModel(Config{Arch: CNN1, InC: 1, InH: 28, InW: 28, Classes: 10, Seed: 7})
	const batch = 16
	x := tensor.New(batch, 1, 28, 28)
	x.FillUniform(rng.New(1), 0, 1)
	y := make([]int, batch)
	for i := range y {
		y[i] = i % 10
	}
	opt := nn.NewMomentumSGD(0.01, 0.9, 0)
	loss := nn.SoftmaxCrossEntropy{}
	params := m.Net.Params()
	var gradBuf *tensor.Tensor
	step := func() {
		for _, p := range params {
			p.ZeroGrad()
		}
		out := m.Net.Forward(x, true)
		_, g := loss.LossInto(gradBuf, out, y)
		gradBuf = g
		m.Net.Backward(g)
		nn.ClipGradNorm(params, 5)
		opt.Step(params)
	}
	step() // warmup: layer scratch, grad buffer, and velocity state settle
	if allocs := testing.AllocsPerRun(5, step); allocs != 0 {
		t.Errorf("CNN1 training step: %v allocs/run in steady state, want 0", allocs)
	}
}

// TestPredictZeroAllocSteadyState checks the batched inference path: after
// one warmup call, Accuracy (which drives predictInto with reused batch
// views and a cached prediction buffer) allocates nothing.
func TestPredictZeroAllocSteadyState(t *testing.T) {
	m := MustModel(Config{Arch: MLP, InC: 1, InH: 8, InW: 8, Classes: 4, Seed: 3})
	x := tensor.New(10, 1, 8, 8)
	x.FillUniform(rng.New(2), 0, 1)
	y := make([]int, 10)
	for i := range y {
		y[i] = i % 4
	}
	eval := func() { m.Accuracy(x, y, 4) }
	eval() // warmup
	if allocs := testing.AllocsPerRun(5, eval); allocs != 0 {
		t.Errorf("Accuracy: %v allocs/run in steady state, want 0", allocs)
	}
}
