package train

import (
	"errors"
	"math"
	"testing"

	"hpnn/internal/dataset"
	"hpnn/internal/nn"
	"hpnn/internal/rng"
	"hpnn/internal/tensor"
)

// blobNet builds a small deterministic classifier over 2-D inputs.
func blobNet(seed uint64) *nn.Network {
	r := rng.New(seed)
	return nn.NewNetwork(
		nn.NewDense(2, 16).InitHe(r), nn.NewReLU(),
		nn.NewDense(16, 2).InitHe(r),
	)
}

// blobData builds an XOR-style quadrant dataset shaped [n, 2].
func blobData(seed uint64, n int) (*tensor.Tensor, []int) {
	r := rng.New(seed)
	x := tensor.New(n, 2)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		cx := float64(1 - 2*r.Intn(2))
		cy := float64(1 - 2*r.Intn(2))
		x.Set(cx+0.3*r.Norm(), i, 0)
		x.Set(cy+0.3*r.Norm(), i, 1)
		if cx*cy > 0 {
			y[i] = 1
		}
	}
	return x, y
}

func netBits(net *nn.Network) []uint64 {
	var out []uint64
	for _, p := range net.Params() {
		for _, v := range p.Value.Data {
			out = append(out, math.Float64bits(v))
		}
	}
	return out
}

// TestTrainerMatchesInlineLoop: the Trainer must reproduce the exact
// update sequence of the hand-written loop it replaced — same shuffle,
// same schedule, same clipping — verified bitwise on the final weights.
func TestTrainerMatchesInlineLoop(t *testing.T) {
	x, y := blobData(5, 96)
	const (
		epochs = 4
		batch  = 16
		lr     = 0.1
	)

	// Reference: the old core.Train loop, inlined.
	ref := blobNet(9)
	opt := nn.NewMomentumSGD(lr, 0.9, 1e-4)
	loss := nn.SoftmaxCrossEntropy{}
	params := ref.Params()
	var gradBuf *tensor.Tensor
	for ep := 0; ep < epochs; ep++ {
		opt.SetLR(nn.StepDecay(lr, ep, 2, 0.5))
		for _, b := range dataset.Batches(x, y, batch, ShuffleSeed(42, ep)) {
			out := ref.Forward(b.X, true)
			_, g := loss.LossInto(gradBuf, out, b.Y)
			gradBuf = g
			ref.Backward(g)
			nn.ClipGradNorm(params, 5)
			opt.Step(params)
		}
	}

	// Same run through the Trainer.
	net := blobNet(9)
	tr, err := New(net, Config{
		Epochs: epochs, BatchSize: batch, LR: lr, Momentum: 0.9, WeightDecay: 1e-4,
		Schedule: StepDecay{Base: lr, Every: 2, Factor: 0.5}, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(x, y, nil); err != nil {
		t.Fatal(err)
	}

	a, b := netBits(ref), netBits(net)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trainer diverges from inline loop at scalar %d", i)
		}
	}
}

// TestDataSizeError: mismatched samples/labels return the typed error
// instead of panicking.
func TestDataSizeError(t *testing.T) {
	net := blobNet(1)
	tr, err := New(net, Config{Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	x, _ := blobData(2, 8)
	_, err = tr.Run(x, make([]int, 5), nil)
	var dse *DataSizeError
	if !errors.As(err, &dse) {
		t.Fatalf("want DataSizeError, got %v", err)
	}
	if dse.Samples != 8 || dse.Labels != 5 {
		t.Fatalf("error carries %d/%d, want 8/5", dse.Samples, dse.Labels)
	}
	if _, err := tr.Run(nil, nil, nil); err == nil {
		t.Fatal("nil input accepted")
	}
}

// TestUnknownOptimizerRejected: optimizer selection is by name and
// validated at construction.
func TestUnknownOptimizerRejected(t *testing.T) {
	if _, err := New(blobNet(1), Config{Optimizer: "rmsprop"}); err == nil {
		t.Fatal("unknown optimizer accepted")
	}
	for _, ok := range []string{"", "sgd", "adam"} {
		if _, err := New(blobNet(1), Config{Optimizer: ok}); err != nil {
			t.Fatalf("optimizer %q rejected: %v", ok, err)
		}
	}
}

// TestHookBus: OnStep fires once per optimizer step with timing and LR,
// OnEval once per epoch, and OnEpoch carries throughput plus a usable
// snapshot closure.
func TestHookBus(t *testing.T) {
	x, y := blobData(6, 64)
	const epochs, batch = 3, 16
	steps, evals, epochsSeen := 0, 0, 0
	var lastInfo EpochInfo
	net := blobNet(2)
	tr, err := New(net, Config{
		Epochs: epochs, BatchSize: batch, LR: 0.05, Seed: 3,
		Hooks: Hooks{
			OnStep: func(si StepInfo) {
				steps++
				if si.Batch <= 0 || si.LR <= 0 {
					t.Errorf("bad step info %+v", si)
				}
			},
			OnEval:  func(epoch int, acc float64) { evals++ },
			OnEpoch: func(info EpochInfo) bool { epochsSeen++; lastInfo = info; return true },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	eval := func() float64 { return 0.5 }
	if _, err := tr.Run(x, y, eval); err != nil {
		t.Fatal(err)
	}
	wantSteps := epochs * (64 / batch)
	if steps != wantSteps {
		t.Fatalf("OnStep fired %d times, want %d", steps, wantSteps)
	}
	if evals != epochs || epochsSeen != epochs {
		t.Fatalf("OnEval/OnEpoch fired %d/%d times, want %d", evals, epochsSeen, epochs)
	}
	if lastInfo.SamplesPerSec <= 0 || lastInfo.Samples != 64 || lastInfo.Steps != 4 {
		t.Fatalf("epoch info missing throughput: %+v", lastInfo)
	}
	if !lastInfo.HasEval || lastInfo.TestAcc != 0.5 {
		t.Fatalf("epoch info missing eval: %+v", lastInfo)
	}
	st := lastInfo.Snapshot()
	if st.NextEpoch != epochs || len(st.EpochLoss) != epochs {
		t.Fatalf("snapshot at %d with %d losses, want %d", st.NextEpoch, len(st.EpochLoss), epochs)
	}
}

// TestEarlyStop: OnEpoch returning false ends the run and marks the
// result.
func TestEarlyStop(t *testing.T) {
	x, y := blobData(8, 32)
	tr, err := New(blobNet(4), Config{
		Epochs: 10, BatchSize: 8, LR: 0.05, Seed: 1,
		Hooks: Hooks{OnEpoch: func(info EpochInfo) bool { return info.Epoch < 2 }},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run(x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped || len(res.EpochLoss) != 3 {
		t.Fatalf("early stop after epoch 2: stopped=%v, %d epochs recorded", res.Stopped, len(res.EpochLoss))
	}
}

// TestGradAugmentLossAccounting: the augment hook's extra loss is folded
// into the reported epoch loss.
func TestGradAugmentLossAccounting(t *testing.T) {
	x, y := blobData(9, 32)
	run := func(extra float64) float64 {
		cfg := Config{Epochs: 1, BatchSize: 8, LR: 0.0, Seed: 1, ClipNorm: -1}
		cfg.LR = 1e-12 // effectively frozen weights so losses align
		if extra != 0 {
			cfg.GradAugments = []func() float64{func() float64 { return extra }}
		}
		tr, err := New(blobNet(7), cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tr.Run(x, y, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.EpochLoss[0]
	}
	base, augmented := run(0), run(0.25)
	if math.Abs((augmented-base)-0.25) > 1e-9 {
		t.Fatalf("augment loss not accounted: base %v, augmented %v", base, augmented)
	}
}
