package nn

import (
	"math"
	"testing"

	"hpnn/internal/rng"
	"hpnn/internal/tensor"
)

// gradCheckNet verifies analytic vs numeric gradients for a small network
// under softmax cross-entropy, for both parameters and input.
func gradCheckNet(t *testing.T, net *Network, x *tensor.Tensor, labels []int, tol float64) {
	t.Helper()
	loss := SoftmaxCrossEntropy{}
	run := func() float64 {
		out := net.Forward(x, true)
		l, _ := loss.Loss(out, labels)
		return l
	}
	// Populate analytic gradients (params and input).
	net.ZeroGrad()
	out := net.Forward(x, true)
	_, g := loss.Loss(out, labels)
	dx := net.Backward(g)

	const eps = 1e-5
	worst := CheckGradients(net, x, run, eps)
	if worst > tol {
		t.Fatalf("parameter gradient check failed: max rel err %v > %v", worst, tol)
	}
	// Input gradient check.
	worstIn := 0.0
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		lp := run()
		x.Data[i] = orig - eps
		lm := run()
		x.Data[i] = orig
		numeric := (lp - lm) / (2 * eps)
		worstIn = math.Max(worstIn, relErr(dx.Data[i], numeric))
	}
	if worstIn > tol {
		t.Fatalf("input gradient check failed: max rel err %v > %v", worstIn, tol)
	}
}

func TestDenseGradients(t *testing.T) {
	r := rng.New(1)
	net := NewNetwork(NewDense(6, 4).InitHe(r))
	x := tensor.New(3, 6)
	x.FillNorm(r, 0, 1)
	gradCheckNet(t, net, x, []int{0, 2, 3}, 1e-5)
}

func TestDenseForwardKnown(t *testing.T) {
	d := NewDense(2, 2)
	copy(d.W.Value.Data, []float64{1, 2, 3, 4}) // W = [[1,2],[3,4]]
	copy(d.B.Value.Data, []float64{10, 20})
	x := tensor.FromSlice([]float64{1, 1}, 1, 2)
	y := d.Forward(x, false)
	if y.Data[0] != 13 || y.Data[1] != 27 {
		t.Fatalf("dense forward wrong: %v", y.Data)
	}
}

func TestConvGradients(t *testing.T) {
	r := rng.New(2)
	g := tensor.ConvGeom{InC: 2, InH: 5, InW: 5, KH: 3, KW: 3, Stride: 1, Pad: 1}
	net := NewNetwork(
		NewConv2D(g, 3).InitHe(r),
		NewFlatten(),
		NewDense(3*5*5, 3).InitHe(r),
	)
	x := tensor.New(2, 2, 5, 5)
	x.FillNorm(r, 0, 1)
	gradCheckNet(t, net, x, []int{0, 2}, 1e-4)
}

func TestConvStrideGradients(t *testing.T) {
	r := rng.New(3)
	g := tensor.ConvGeom{InC: 1, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 2, Pad: 0}
	net := NewNetwork(
		NewConv2D(g, 2).InitHe(r),
		NewFlatten(),
		NewDense(2*2*2, 2).InitHe(r),
	)
	x := tensor.New(2, 1, 6, 6)
	x.FillNorm(r, 0, 1)
	gradCheckNet(t, net, x, []int{0, 1}, 1e-4)
}

func TestReLUGradients(t *testing.T) {
	r := rng.New(4)
	net := NewNetwork(NewDense(5, 5).InitHe(r), NewReLU(), NewDense(5, 3).InitHe(r))
	x := tensor.New(4, 5)
	x.FillNorm(r, 0, 1)
	gradCheckNet(t, net, x, []int{0, 1, 2, 0}, 1e-4)
}

func TestLeakyReLUAndTanhSigmoidGradients(t *testing.T) {
	r := rng.New(5)
	net := NewNetwork(NewDense(4, 5).InitHe(r), NewSigmoid(), NewDense(5, 3).InitHe(r))
	x := tensor.New(3, 4)
	x.FillNorm(r, 0, 1)
	gradCheckNet(t, net, x, []int{2, 1, 0}, 1e-4)
}

func TestMaxPoolGradients(t *testing.T) {
	r := rng.New(6)
	pg := tensor.ConvGeom{InC: 2, InH: 4, InW: 4, KH: 2, KW: 2, Stride: 2}
	net := NewNetwork(
		NewMaxPool(pg),
		NewFlatten(),
		NewDense(2*2*2, 3).InitHe(r),
	)
	x := tensor.New(2, 2, 4, 4)
	x.FillNorm(r, 0, 1)
	gradCheckNet(t, net, x, []int{0, 2}, 1e-4)
}

func TestMaxPoolForwardKnown(t *testing.T) {
	g := tensor.ConvGeom{InC: 1, InH: 2, InW: 2, KH: 2, KW: 2, Stride: 2}
	mp := NewMaxPool(g)
	x := tensor.FromSlice([]float64{1, -5, 3, 2}, 1, 1, 2, 2)
	y := mp.Forward(x, false)
	if y.Len() != 1 || y.Data[0] != 3 {
		t.Fatalf("maxpool forward wrong: %v", y.Data)
	}
}

func TestGlobalAvgPoolGradients(t *testing.T) {
	r := rng.New(8)
	net := NewNetwork(NewGlobalAvgPool(), NewDense(3, 2).InitHe(r))
	x := tensor.New(2, 3, 4, 4)
	x.FillNorm(r, 0, 1)
	gradCheckNet(t, net, x, []int{0, 1}, 1e-4)
}

func TestBatchNormGradients(t *testing.T) {
	r := rng.New(9)
	g := tensor.ConvGeom{InC: 2, InH: 3, InW: 3, KH: 3, KW: 3, Stride: 1, Pad: 1}
	net := NewNetwork(
		NewConv2D(g, 2).InitHe(r),
		NewBatchNorm2D(2),
		NewFlatten(),
		NewDense(2*3*3, 2).InitHe(r),
	)
	x := tensor.New(4, 2, 3, 3)
	x.FillNorm(r, 0, 1)
	gradCheckNet(t, net, x, []int{0, 1, 1, 0}, 2e-4)
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	bn := NewBatchNorm2D(1)
	x := tensor.New(8, 1, 2, 2)
	x.FillNorm(rng.New(10), 5, 2)
	bn.Forward(x, true) // populate running stats
	yEval := bn.Forward(x, false)
	// Eval output should differ from train output in general, and be a
	// deterministic affine function of the input.
	yEval2 := bn.Forward(x, false)
	if !tensor.Equal(yEval, yEval2, 0) {
		t.Fatal("eval-mode batchnorm must be deterministic")
	}
	// Running stats should be pulled toward the batch statistics.
	if bn.RunMean.Data[0] == 0 {
		t.Fatal("running mean not updated")
	}
}

func TestLockGradients(t *testing.T) {
	r := rng.New(11)
	lock := NewLock("L0", 6)
	bits := []byte{1, 0, 1, 1, 0, 0}
	lock.SetBits(bits)
	net := NewNetwork(NewDense(5, 6).InitHe(r), lock, NewReLU(), NewDense(6, 3).InitHe(r))
	x := tensor.New(3, 5)
	x.FillNorm(r, 0, 1)
	gradCheckNet(t, net, x, []int{0, 1, 2}, 1e-4)
}

func TestLockForwardSemantics(t *testing.T) {
	lock := NewLock("L", 3)
	lock.SetBits([]byte{0, 1, 0})
	x := tensor.FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y := lock.Forward(x, false)
	want := []float64{1, -2, 3, 4, -5, 6}
	for i, v := range want {
		if y.Data[i] != v {
			t.Fatalf("lock forward[%d] = %v, want %v", i, y.Data[i], v)
		}
	}
	lock.Disengage()
	y2 := lock.Forward(x, false)
	if !tensor.Equal(y2, x, 0) {
		t.Fatal("disengaged lock must be identity")
	}
	lock.Engage()
	got := lock.Bits()
	for i, b := range []byte{0, 1, 0} {
		if got[i] != b {
			t.Fatal("Bits round-trip failed")
		}
	}
}

func TestLockBitsSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SetBits with wrong size did not panic")
		}
	}()
	NewLock("L", 3).SetBits([]byte{1})
}

func TestResidualGradients(t *testing.T) {
	r := rng.New(14)
	g := tensor.ConvGeom{InC: 2, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}
	body := NewNetwork(NewConv2D(g, 2).InitHe(r), NewReLU(), NewConv2D(g, 2).InitHe(r))
	post := NewNetwork(NewReLU())
	net := NewNetwork(
		NewResidual(body, nil, post),
		NewFlatten(),
		NewDense(2*4*4, 2).InitHe(r),
	)
	x := tensor.New(2, 2, 4, 4)
	x.FillNorm(r, 0, 1)
	gradCheckNet(t, net, x, []int{0, 1}, 1e-4)
}

func TestResidualProjectionGradients(t *testing.T) {
	r := rng.New(15)
	g := tensor.ConvGeom{InC: 2, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 2, Pad: 1}
	skipG := tensor.ConvGeom{InC: 2, InH: 4, InW: 4, KH: 1, KW: 1, Stride: 2, Pad: 0}
	g2 := tensor.ConvGeom{InC: 4, InH: 2, InW: 2, KH: 3, KW: 3, Stride: 1, Pad: 1}
	body := NewNetwork(NewConv2D(g, 4).InitHe(r), NewReLU(), NewConv2D(g2, 4).InitHe(r))
	skip := NewNetwork(NewConv2D(skipG, 4).InitHe(r))
	net := NewNetwork(
		NewResidual(body, skip, NewNetwork(NewReLU())),
		NewFlatten(),
		NewDense(4*2*2, 2).InitHe(r),
	)
	x := tensor.New(2, 2, 4, 4)
	x.FillNorm(r, 0, 1)
	gradCheckNet(t, net, x, []int{1, 0}, 1e-4)
}

func TestNetworkLocksDiscovery(t *testing.T) {
	r := rng.New(16)
	g := tensor.ConvGeom{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}
	body := NewNetwork(NewConv2D(g, 1).InitHe(r), NewLock("inner", 16), NewReLU())
	net := NewNetwork(
		NewLock("top", 16),
		NewResidual(body, nil, NewNetwork(NewLock("post", 16), NewReLU())),
	)
	locks := net.Locks()
	if len(locks) != 3 {
		t.Fatalf("found %d locks, want 3", len(locks))
	}
	if locks[0].ID != "top" || locks[1].ID != "inner" || locks[2].ID != "post" {
		t.Fatalf("lock order wrong: %s %s %s", locks[0].ID, locks[1].ID, locks[2].ID)
	}
}

func TestSoftmaxCrossEntropyKnown(t *testing.T) {
	loss := SoftmaxCrossEntropy{}
	logits := tensor.FromSlice([]float64{0, 0}, 1, 2)
	l, g := loss.Loss(logits, []int{0})
	if math.Abs(l-math.Log(2)) > 1e-12 {
		t.Fatalf("uniform logits loss %v, want ln2", l)
	}
	if math.Abs(g.Data[0]+0.5) > 1e-12 || math.Abs(g.Data[1]-0.5) > 1e-12 {
		t.Fatalf("gradient wrong: %v", g.Data)
	}
}

func TestSoftmaxProbabilitiesSumToOne(t *testing.T) {
	r := rng.New(17)
	logits := tensor.New(5, 10)
	logits.FillNorm(r, 0, 3)
	p := SoftmaxCrossEntropy{}.Probabilities(logits)
	for i := 0; i < 5; i++ {
		s := 0.0
		for j := 0; j < 10; j++ {
			s += p.At(i, j)
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("row %d probabilities sum to %v", i, s)
		}
	}
}

func TestMSELossKnown(t *testing.T) {
	pred := tensor.FromSlice([]float64{1, 2}, 1, 2)
	target := tensor.FromSlice([]float64{0, 0}, 1, 2)
	l, g := MSE{}.Loss(pred, target)
	if math.Abs(l-2.5) > 1e-12 {
		t.Fatalf("MSE loss %v, want 2.5", l)
	}
	if g.Data[0] != 1 || g.Data[1] != 2 {
		t.Fatalf("MSE grad wrong: %v", g.Data)
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	f := NewFlatten()
	x := tensor.New(2, 3, 4, 5)
	y := f.Forward(x, false)
	if y.Shape[0] != 2 || y.Shape[1] != 60 {
		t.Fatalf("flatten shape %v", y.Shape)
	}
	back := f.Backward(y)
	if len(back.Shape) != 4 || back.Shape[3] != 5 {
		t.Fatalf("flatten backward shape %v", back.Shape)
	}
}

func TestClipGradNorm(t *testing.T) {
	p := NewParam("p", 4)
	copy(p.Grad.Data, []float64{3, 0, 4, 0}) // norm 5
	norm := ClipGradNorm([]*Param{p}, 1)
	if math.Abs(norm-5) > 1e-12 {
		t.Fatalf("pre-clip norm %v", norm)
	}
	if math.Abs(p.Grad.L2Norm()-1) > 1e-12 {
		t.Fatalf("post-clip norm %v", p.Grad.L2Norm())
	}
}

func TestStepDecay(t *testing.T) {
	if StepDecay(0.1, 0, 10, 0.5) != 0.1 {
		t.Fatal("epoch 0 should be base")
	}
	if math.Abs(StepDecay(0.1, 20, 10, 0.5)-0.025) > 1e-15 {
		t.Fatal("two decays expected at epoch 20")
	}
	if StepDecay(0.1, 50, 0, 0.5) != 0.1 {
		t.Fatal("zero interval disables decay")
	}
}

func TestParamCountAndSummary(t *testing.T) {
	r := rng.New(18)
	net := NewNetwork(NewDense(10, 5).InitHe(r), NewReLU(), NewDense(5, 2).InitHe(r))
	want := 10*5 + 5 + 5*2 + 2
	if net.ParamCount() != want {
		t.Fatalf("ParamCount %d, want %d", net.ParamCount(), want)
	}
	if net.Summary() == "" {
		t.Fatal("empty summary")
	}
}
