package core

import (
	"math"
	"testing"

	"hpnn/internal/dataset"
	"hpnn/internal/keys"
	"hpnn/internal/nn"
	"hpnn/internal/rng"
	"hpnn/internal/schedule"
	"hpnn/internal/tensor"
	"hpnn/internal/train"
)

// TestLockedNeuronCountsMatchTableI verifies that at native input sizes and
// WidthScale=1 the architectures have exactly the locked-neuron counts the
// paper reports in Table I.
func TestLockedNeuronCountsMatchTableI(t *testing.T) {
	cases := []struct {
		arch          Arch
		c, h, w, want int
	}{
		{CNN1, 1, 28, 28, 4352},
		{CNN2, 3, 32, 32, 198144},
		{CNN3, 3, 32, 32, 29696},
	}
	for _, tc := range cases {
		m := MustModel(Config{Arch: tc.arch, InC: tc.c, InH: tc.h, InW: tc.w, Seed: 1})
		if got := m.LockedNeurons(); got != tc.want {
			t.Fatalf("%s: %d locked neurons, want %d (Table I)", tc.arch, got, tc.want)
		}
	}
}

func TestArchitectureLayerInventory(t *testing.T) {
	// CNN1: 2 C, 2 MP, 2 ReLU, 1 FC per Table I.
	m := MustModel(Config{Arch: CNN1, InC: 1, InH: 28, InW: 28, Seed: 1})
	var convs, pools, relus, fcs int
	for _, l := range m.Net.Layers {
		switch l.(type) {
		case *nn.Conv2D:
			convs++
		case *nn.MaxPool:
			pools++
		case *nn.ReLU:
			relus++
		case *nn.Dense:
			fcs++
		}
	}
	if convs != 2 || pools != 2 || relus != 2 || fcs != 1 {
		t.Fatalf("CNN1 inventory C=%d MP=%d ReLU=%d FC=%d, want 2/2/2/1", convs, pools, relus, fcs)
	}
}

func TestResNet18Structure(t *testing.T) {
	m := MustModel(Config{Arch: ResNet18, InC: 1, InH: 16, InW: 16, WidthScale: 0.125, Seed: 2})
	// 1 stem lock + 8 blocks × 2 locks each.
	if got := len(m.Locks()); got != 17 {
		t.Fatalf("ResNet18 has %d locks, want 17", got)
	}
	blocks := 0
	for _, l := range m.Net.Layers {
		if _, ok := l.(*nn.Residual); ok {
			blocks++
		}
	}
	if blocks != 8 {
		t.Fatalf("ResNet18 has %d residual blocks, want 8", blocks)
	}
	// Forward/backward smoke at reduced scale.
	x := tensor.New(2, 1, 16, 16)
	x.FillNorm(rng.New(3), 0, 1)
	out := m.Net.Forward(x, true)
	if out.Shape[0] != 2 || out.Shape[1] != 10 {
		t.Fatalf("ResNet18 output shape %v", out.Shape)
	}
	loss := nn.SoftmaxCrossEntropy{}
	_, g := loss.LossInto(nil, out, []int{0, 1})
	m.Net.Backward(g)
}

func TestUnknownArchRejected(t *testing.T) {
	if _, err := NewModel(Config{Arch: "vgg", InC: 1, InH: 8, InW: 8}); err == nil {
		t.Fatal("unknown architecture accepted")
	}
	if _, err := NewModel(Config{Arch: CNN1, InC: 0, InH: 8, InW: 8}); err == nil {
		t.Fatal("invalid input dims accepted")
	}
}

func TestApplyKeyDeterministicAndKeyed(t *testing.T) {
	cfg := Config{Arch: MLP, InC: 1, InH: 8, InW: 8, Seed: 4}
	sched := schedule.New(keys.KeyBits, 99)
	k1 := keys.Generate(rng.New(1))
	k2 := keys.Generate(rng.New(2))

	m1 := MustModel(cfg)
	m1.ApplyRawKey(k1, sched)
	m2 := MustModel(cfg)
	m2.ApplyRawKey(k1, sched)
	m3 := MustModel(cfg)
	m3.ApplyRawKey(k2, sched)

	b1, b2, b3 := m1.KeyBits(), m2.KeyBits(), m3.KeyBits()
	same12, same13 := 0, 0
	for i := range b1 {
		if b1[i] == b2[i] {
			same12++
		}
		if b1[i] == b3[i] {
			same13++
		}
	}
	if same12 != len(b1) {
		t.Fatal("same key + schedule must give identical lock bits")
	}
	if same13 > len(b1)*3/4 {
		t.Fatalf("different keys agree on %d/%d lock bits", same13, len(b1))
	}
}

func TestApplyKeyScheduleSecrecy(t *testing.T) {
	cfg := Config{Arch: MLP, InC: 1, InH: 8, InW: 8, Seed: 4}
	k := keys.Generate(rng.New(1))
	m1 := MustModel(cfg)
	m1.ApplyRawKey(k, schedule.New(keys.KeyBits, 1))
	m2 := MustModel(cfg)
	m2.ApplyRawKey(k, schedule.New(keys.KeyBits, 2))
	b1, b2 := m1.KeyBits(), m2.KeyBits()
	same := 0
	for i := range b1 {
		if b1[i] == b2[i] {
			same++
		}
	}
	if same == len(b1) {
		t.Fatal("schedule seed has no effect on lock bits — scheduling is not private")
	}
}

func TestCloneWeightsTo(t *testing.T) {
	cfg := Config{Arch: CNN1, InC: 1, InH: 16, InW: 16, WidthScale: 0.5, Seed: 5}
	src := MustModel(cfg)
	dst := MustModel(Config{Arch: CNN1, InC: 1, InH: 16, InW: 16, WidthScale: 0.5, Seed: 77})
	if err := src.CloneWeightsTo(dst); err != nil {
		t.Fatal(err)
	}
	// With identical (disengaged) locks the two models must agree.
	src.DisengageLocks()
	dst.DisengageLocks()
	x := tensor.New(3, 1, 16, 16)
	x.FillNorm(rng.New(6), 0, 1)
	a := src.Net.Forward(x, false)
	b := dst.Net.Forward(x, false)
	if !tensor.Equal(a, b, 1e-12) {
		t.Fatal("cloned weights disagree on forward pass")
	}
}

func TestCloneWeightsMismatch(t *testing.T) {
	a := MustModel(Config{Arch: MLP, InC: 1, InH: 8, InW: 8, Seed: 1})
	b := MustModel(Config{Arch: MLP, InC: 1, InH: 8, InW: 8, WidthScale: 2, Seed: 1})
	if err := a.CloneWeightsTo(b); err == nil {
		t.Fatal("mismatched architectures accepted")
	}
}

func TestPredictBatchBoundaryInvariance(t *testing.T) {
	m := MustModel(Config{Arch: MLP, InC: 1, InH: 8, InW: 8, Seed: 7})
	x := tensor.New(13, 1, 8, 8)
	x.FillNorm(rng.New(8), 0, 1)
	a := m.Predict(x, 64)
	b := m.Predict(x, 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("predictions depend on batch size")
		}
	}
}

func TestAccuracyEmpty(t *testing.T) {
	m := MustModel(Config{Arch: MLP, InC: 1, InH: 8, InW: 8, Seed: 7})
	if m.Accuracy(tensor.New(0, 1, 8, 8), nil, 8) != 0 {
		t.Fatal("empty accuracy should be 0")
	}
}

// TestTheorem1 reproduces the paper's Theorem 1: for a single-layer
// fully-connected network initialized with all-zero weights and trained
// with the key-dependent delta rule, the weight vectors learned under
// opposite lock factors are exact negations: w(L=-1) = -w(L=+1), and both
// networks produce identical outputs.
func TestTheorem1(t *testing.T) {
	build := func(bit byte) (*nn.Network, *nn.Dense, *nn.Lock) {
		d := nn.NewDense(6, 3) // zero-initialized
		lock := nn.NewLock("t1", 3)
		bits := []byte{bit, bit, bit}
		lock.SetBits(bits)
		return nn.NewNetwork(d, lock, nn.NewSigmoid()), d, lock
	}
	netPos, dPos, _ := build(0)
	netNeg, dNeg, _ := build(1)

	r := rng.New(9)
	mse := nn.MSE{}
	opt1 := nn.NewSGD(0.1)
	opt2 := nn.NewSGD(0.1)
	for ep := 0; ep < 25; ep++ {
		x := tensor.New(4, 6)
		x.FillNorm(r, 0, 1)
		target := tensor.New(4, 3)
		target.FillUniform(r, 0, 1)

		out1 := netPos.Forward(x, true)
		_, g1 := mse.LossInto(nil, out1, target)
		netPos.Backward(g1)
		opt1.Step(netPos.Params())

		out2 := netNeg.Forward(x, true)
		_, g2 := mse.LossInto(nil, out2, target)
		netNeg.Backward(g2)
		opt2.Step(netNeg.Params())
	}
	for i := range dPos.W.Value.Data {
		if math.Abs(dPos.W.Value.Data[i]+dNeg.W.Value.Data[i]) > 1e-9 {
			t.Fatalf("Theorem 1 violated at weight %d: %v vs %v",
				i, dPos.W.Value.Data[i], dNeg.W.Value.Data[i])
		}
	}
	for i := range dPos.B.Value.Data {
		if math.Abs(dPos.B.Value.Data[i]+dNeg.B.Value.Data[i]) > 1e-9 {
			t.Fatalf("Theorem 1 violated at bias %d", i)
		}
	}
	// Identical predictions.
	x := tensor.New(5, 6)
	x.FillNorm(r, 0, 1)
	o1 := netPos.Forward(x, false)
	o2 := netNeg.Forward(x, false)
	if !tensor.Equal(o1, o2, 1e-9) {
		t.Fatal("Theorem 1: equivalent models disagree on outputs")
	}
}

// TestLemma1 reproduces the paper's Lemma 1 equivalence: flipping a
// neuron's key bit and negating its incoming weight vector (and bias)
// leaves the network function unchanged — the weight assignments
// equivalent under different keys exist explicitly.
func TestLemma1(t *testing.T) {
	cfg := Config{Arch: MLP, InC: 1, InH: 4, InW: 4, WidthScale: 0.25, Seed: 10}
	m := MustModel(cfg)
	sched := schedule.New(keys.KeyBits, 3)
	m.ApplyRawKey(keys.Generate(rng.New(11)), sched)

	// Clone the model, flip the first lock's bits for a few neurons and
	// negate the matching rows of the first Dense layer.
	m2 := MustModel(cfg)
	if err := m.CloneWeightsTo(m2); err != nil {
		t.Fatal(err)
	}
	for i, l := range m.Locks() {
		m2.Locks()[i].SetBits(l.Bits())
	}
	var firstDense *nn.Dense
	for _, l := range m2.Net.Layers {
		if d, ok := l.(*nn.Dense); ok {
			firstDense = d
			break
		}
	}
	lock2 := m2.Locks()[0]
	bits := lock2.Bits()
	for _, j := range []int{0, 3, 7, 11} {
		bits[j] ^= 1
		in := firstDense.In
		for i := 0; i < in; i++ {
			firstDense.W.Value.Data[j*in+i] *= -1
		}
		firstDense.B.Value.Data[j] *= -1
	}
	lock2.SetBits(bits)

	x := tensor.New(6, 1, 4, 4)
	x.FillNorm(rng.New(12), 0, 1)
	o1 := m.Net.Forward(x, false)
	o2 := m2.Net.Forward(x, false)
	if !tensor.Equal(o1, o2, 1e-10) {
		t.Fatal("Lemma 1: equivalent weight assignment changed the network function")
	}
}

// TestLockedTrainingAccuracyCollapse is the headline HPNN behaviour at
// miniature image scale: a key-locked CNN1 reaches good accuracy with the
// key and collapses toward chance (10%) without it.
func TestLockedTrainingAccuracyCollapse(t *testing.T) {
	ds, err := dataset.Generate(dataset.Config{
		Name: "fashion", TrainN: 400, TestN: 200, H: 16, W: 16, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := MustModel(Config{Arch: CNN1, InC: 1, InH: 16, InW: 16, WidthScale: 1, Seed: 14})
	sched := schedule.New(keys.KeyBits, 5)
	m.ApplyRawKey(keys.Generate(rng.New(15)), sched)

	res := Train(m, ds.TrainX, ds.TrainY, ds.TestX, ds.TestY, TrainConfig{
		Epochs: 8, BatchSize: 32, LR: 0.02, Momentum: 0.9, Seed: 16,
	})
	withKey := res.FinalTestAcc()
	m.DisengageLocks()
	withoutKey := m.Accuracy(ds.TestX, ds.TestY, 64)
	m.EngageLocks()

	if withKey < 0.8 {
		t.Fatalf("locked CNN1 failed to train: test acc %v", withKey)
	}
	if withoutKey > 0.4 {
		t.Fatalf("no-key accuracy %v did not collapse (with key: %v)", withoutKey, withKey)
	}
	t.Logf("with key: %.3f, without key: %.3f", withKey, withoutKey)
}

func TestTrainRecordsTrajectory(t *testing.T) {
	ds, _ := dataset.Generate(dataset.Config{Name: "fashion", TrainN: 60, TestN: 30, H: 12, W: 12, Seed: 17})
	m := MustModel(Config{Arch: MLP, InC: 1, InH: 12, InW: 12, Seed: 18})
	var lines int
	res := Train(m, ds.TrainX, ds.TrainY, ds.TestX, ds.TestY, TrainConfig{
		Epochs: 3, BatchSize: 16, LR: 0.05,
		Hooks: train.Hooks{Logf: func(string, ...any) { lines++ }},
	})
	if len(res.EpochLoss) != 3 || len(res.TestAcc) != 3 {
		t.Fatalf("trajectory lengths %d/%d, want 3/3", len(res.EpochLoss), len(res.TestAcc))
	}
	if lines != 3 {
		t.Fatalf("Logf called %d times, want 3", lines)
	}
	if res.BestTestAcc() < res.TestAcc[0] {
		t.Fatal("BestTestAcc below first epoch")
	}
	if res.EpochLoss[2] >= res.EpochLoss[0] {
		t.Fatalf("loss did not decrease: %v", res.EpochLoss)
	}
}

func TestDisengageEngageRoundTrip(t *testing.T) {
	m := MustModel(Config{Arch: MLP, InC: 1, InH: 8, InW: 8, Seed: 19})
	m.ApplyRawKey(keys.Generate(rng.New(20)), schedule.New(keys.KeyBits, 6))
	x := tensor.New(2, 1, 8, 8)
	x.FillNorm(rng.New(21), 0, 1)
	before := m.Net.Forward(x, false).Clone()
	m.DisengageLocks()
	// Forward returns layer-owned scratch: Clone before the next pass
	// overwrites it.
	during := m.Net.Forward(x, false).Clone()
	m.EngageLocks()
	after := m.Net.Forward(x, false)
	if tensor.Equal(before, during, 1e-12) {
		t.Fatal("disengaging locks should change outputs for a random key")
	}
	if !tensor.Equal(before, after, 1e-12) {
		t.Fatal("engage after disengage must restore the function")
	}
}
