package nn

import (
	"math"
	"testing"

	"hpnn/internal/rng"
	"hpnn/internal/tensor"
)

// TestHeInitStatistics: He initialization must give zero-mean weights with
// variance 2/fanIn.
func TestHeInitStatistics(t *testing.T) {
	const in, out = 200, 300
	d := NewDense(in, out).InitHe(rng.New(1))
	var sum, sumSq float64
	n := float64(d.W.Value.Len())
	for _, v := range d.W.Value.Data {
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	want := 2.0 / in
	if math.Abs(mean) > 0.005 {
		t.Fatalf("He init mean %v too far from 0", mean)
	}
	if math.Abs(variance-want)/want > 0.1 {
		t.Fatalf("He init variance %v, want %v", variance, want)
	}
	for _, v := range d.B.Value.Data {
		if v != 0 {
			t.Fatal("He init must zero biases")
		}
	}
}

func TestXavierInitVariance(t *testing.T) {
	const in, out = 300, 200
	d := NewDense(in, out).InitXavier(rng.New(2))
	var sumSq float64
	for _, v := range d.W.Value.Data {
		sumSq += v * v
	}
	variance := sumSq / float64(d.W.Value.Len())
	want := 1.0 / in
	if math.Abs(variance-want)/want > 0.1 {
		t.Fatalf("Xavier variance %v, want %v", variance, want)
	}
}

// TestBatchNormNormalizes: training-mode output per channel must be
// ~N(beta, gamma²) regardless of input statistics.
func TestBatchNormNormalizes(t *testing.T) {
	bn := NewBatchNorm2D(2)
	x := tensor.New(16, 2, 4, 4)
	r := rng.New(3)
	for i := range x.Data {
		x.Data[i] = 5 + 3*r.Norm() // far from standard normal
	}
	y := bn.Forward(x, true)
	for ch := 0; ch < 2; ch++ {
		var sum, sumSq float64
		cnt := 0.0
		for i := 0; i < 16; i++ {
			for p := 0; p < 16; p++ {
				v := y.Data[(i*2+ch)*16+p]
				sum += v
				sumSq += v * v
				cnt++
			}
		}
		mean := sum / cnt
		variance := sumSq/cnt - mean*mean
		if math.Abs(mean) > 1e-9 {
			t.Fatalf("channel %d mean %v, want 0", ch, mean)
		}
		if math.Abs(variance-1) > 0.01 {
			t.Fatalf("channel %d variance %v, want 1", ch, variance)
		}
	}
}

// TestParamsOrderStable: serialization depends on a deterministic Params
// traversal; two identically configured networks must agree on names.
func TestParamsOrderStable(t *testing.T) {
	build := func() *Network {
		r := rng.New(4)
		g := tensor.ConvGeom{InC: 1, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}
		body := NewNetwork(NewConv2D(g, 2).InitHe(r), NewBatchNorm2D(2))
		return NewNetwork(
			NewConv2D(g, 1).InitHe(r),
			NewResidual(NewNetwork(NewConv2D(g, 1).InitHe(r)), nil, NewNetwork()),
			NewFlatten(),
			NewDense(64, 4).InitHe(r),
			&Residual{Body: body, Post: NewNetwork()}, // unused shape; order check only
		)
	}
	a, b := build(), build()
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) || len(pa) == 0 {
		t.Fatalf("param counts differ: %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i].Name != pb[i].Name {
			t.Fatalf("param order unstable at %d: %s vs %s", i, pa[i].Name, pb[i].Name)
		}
	}
}

func TestConvRejectsWrongInput(t *testing.T) {
	g := tensor.ConvGeom{InC: 2, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}
	c := NewConv2D(g, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("conv with wrong input shape did not panic")
		}
	}()
	c.Forward(tensor.New(1, 3, 8, 8), false)
}

func TestDenseRejectsWrongInput(t *testing.T) {
	d := NewDense(4, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("dense with wrong width did not panic")
		}
	}()
	d.Forward(tensor.New(1, 5), false)
}

// TestLockTrainEquivalence: training with an engaged all-zero lock must be
// byte-identical to training without the lock layer (L = +1 everywhere is
// the identity).
func TestLockTrainEquivalence(t *testing.T) {
	mkData := func() (*tensor.Tensor, []int) {
		r := rng.New(5)
		x := tensor.New(8, 4)
		x.FillNorm(r, 0, 1)
		return x, []int{0, 1, 2, 0, 1, 2, 0, 1}
	}
	train := func(withLock bool) []float64 {
		r := rng.New(6)
		layers := []Layer{NewDense(4, 6).InitHe(r)}
		if withLock {
			layers = append(layers, NewLock("z", 6))
		}
		layers = append(layers, NewReLU(), NewDense(6, 3).InitHe(r))
		net := NewNetwork(layers...)
		opt := NewSGD(0.1)
		loss := SoftmaxCrossEntropy{}
		x, y := mkData()
		for e := 0; e < 10; e++ {
			out := net.Forward(x, true)
			_, g := loss.Loss(out, y)
			net.Backward(g)
			opt.Step(net.Params())
		}
		var flat []float64
		for _, p := range net.Params() {
			flat = append(flat, p.Value.Data...)
		}
		return flat
	}
	a, b := train(false), train(true)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("zero-key lock changed training at weight %d", i)
		}
	}
}

func BenchmarkCNN1TrainStep(b *testing.B) {
	r := rng.New(7)
	g1 := tensor.ConvGeom{InC: 1, InH: 16, InW: 16, KH: 5, KW: 5, Stride: 1}
	g2 := tensor.ConvGeom{InC: 4, InH: 6, InW: 6, KH: 5, KW: 5, Stride: 1}
	net := NewNetwork(
		NewConv2D(g1, 4).InitHe(r),
		NewLock("l0", 4*12*12), NewReLU(),
		NewMaxPool(tensor.ConvGeom{InC: 4, InH: 12, InW: 12, KH: 2, KW: 2, Stride: 2}),
		NewConv2D(g2, 32).InitHe(r),
		NewLock("l1", 32*2*2), NewReLU(),
		NewMaxPool(tensor.ConvGeom{InC: 32, InH: 2, InW: 2, KH: 2, KW: 2, Stride: 2}),
		NewFlatten(),
		NewDense(32, 10).InitHe(r),
	)
	x := tensor.New(32, 1, 16, 16)
	x.FillNorm(r, 0, 1)
	y := make([]int, 32)
	for i := range y {
		y[i] = i % 10
	}
	opt := NewMomentumSGD(0.02, 0.9, 0)
	loss := SoftmaxCrossEntropy{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := net.Forward(x, true)
		_, g := loss.Loss(out, y)
		net.Backward(g)
		opt.Step(net.Params())
	}
}

func TestParamZeroGrad(t *testing.T) {
	p := NewParam("w", 3)
	p.Grad.Fill(7)
	p.ZeroGrad()
	for _, v := range p.Grad.Data {
		if v != 0 {
			t.Fatal("ZeroGrad left residue")
		}
	}
}

func TestLockNeuronsAccessor(t *testing.T) {
	if NewLock("x", 9).Neurons() != 9 {
		t.Fatal("Neurons accessor wrong")
	}
}

func TestResidualRequiresBody(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewResidual(nil, ...) did not panic")
		}
	}()
	NewResidual(nil, nil, nil)
}
