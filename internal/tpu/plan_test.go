package tpu

import (
	"testing"
	"testing/quick"

	"hpnn/internal/core"
	"hpnn/internal/keys"
	"hpnn/internal/lockscheme"
	"hpnn/internal/nn"
	"hpnn/internal/rng"
	"hpnn/internal/schedule"
	"hpnn/internal/tensor"
)

// TestFoldBNMatchesEval: folding batch-norm into the convolution weights
// must reproduce the float conv→BN(eval) pipeline exactly.
func TestFoldBNMatchesEval(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		g := tensor.ConvGeom{InC: 2, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 1, Pad: 1}
		conv := nn.NewConv2D(g, 3).InitHe(r)
		bn := nn.NewBatchNorm2D(3)
		bn.Gamma.Value.FillUniform(r, 0.5, 1.5)
		bn.Beta.Value.FillNorm(r, 0, 0.3)
		bn.RunMean.FillNorm(r, 0, 0.5)
		bn.RunVar.FillUniform(r, 0.2, 2)

		x := tensor.New(1, 2, 6, 6)
		x.FillNorm(r, 0, 1)
		want := bn.Forward(conv.Forward(x, false), false)

		fw, fb := foldBN(conv.W.Value, conv.B.Value, 3, bn)
		folded := nn.NewConv2D(g, 3)
		copy(folded.W.Value.Data, fw.Data)
		copy(folded.B.Value.Data, fb.Data)
		got := folded.Forward(x, false)
		return tensor.Equal(got, want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFoldBNNilPassthrough(t *testing.T) {
	w := tensor.FromSlice([]float64{1, 2}, 2, 1)
	b := tensor.FromSlice([]float64{3, 4}, 2)
	fw, fb := foldBN(w, b, 2, nil)
	if fw != w || fb != b {
		t.Fatal("nil BN must return the original tensors")
	}
}

func TestQuantizeToWidthsProperty(t *testing.T) {
	f := func(seed uint64, bitsRaw uint8) bool {
		bits := int(bitsRaw%7) + 2 // 2..8
		x := tensor.New(30)
		x.FillNorm(rng.New(seed), 0, 2)
		q := QuantizeTo(x, bits)
		qmax := int8(1)<<(bits-1) - 1
		back := q.Dequantize()
		for i, v := range q.Data {
			if v > qmax || v < -qmax {
				return false
			}
			if absf(back.Data[i]-x.Data[i]) > q.Scale/2+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizeToRejectsBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("QuantizeTo(1) did not panic")
		}
	}()
	QuantizeTo(tensor.New(2), 1)
}

// TestNarrowDatapathDegrades: a trained model keeps its accuracy at 8 bits
// and loses substantially at 2 bits — the quantization ablation's shape.
func TestNarrowDatapathDegrades(t *testing.T) {
	m, key, sched, ds := trainTinyLocked(t)
	dev := keys.NewDevice("user", key)
	accAt := func(bits int) float64 {
		cfg := DefaultConfig()
		cfg.Bits = bits
		a, err := NewAccelerator(cfg, dev, sched)
		if err != nil {
			t.Fatal(err)
		}
		acc, err := a.Accuracy(m, ds.TestX, ds.TestY)
		if err != nil {
			t.Fatal(err)
		}
		return acc
	}
	floatAcc := m.Accuracy(ds.TestX, ds.TestY, 64)
	a8 := accAt(8)
	a2 := accAt(2)
	if a8 < floatAcc-0.1 {
		t.Fatalf("8-bit accuracy %.3f too far below float %.3f", a8, floatAcc)
	}
	if a2 >= a8 {
		t.Fatalf("2-bit accuracy %.3f did not degrade from 8-bit %.3f", a2, a8)
	}
}

// compileDefault compiles m under the default scheme on a commodity device.
func compileDefault(t *testing.T, m *core.Model) *Program {
	t.Helper()
	p, err := NewProgram(lockscheme.Default(), DefaultConfig(), nil, schedule.New(keys.KeyBits, 1), m)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCompilePlanStructure(t *testing.T) {
	cnn1 := core.MustModel(core.Config{Arch: core.CNN1, InC: 1, InH: 16, InW: 16, Seed: 1})
	var convs, denses, pools, flattens int
	for _, op := range compileDefault(t, cnn1).ops {
		switch op.(type) {
		case *convOp:
			convs++
		case *denseOp:
			denses++
		case *poolOp:
			pools++
		case *flattenOp:
			flattens++
		}
	}
	// CNN1: two fused convs (each absorbing lock+relu), two pools + one
	// flatten on the vector unit, one dense.
	if convs != 2 || denses != 1 || pools != 2 || flattens != 1 {
		t.Fatalf("CNN1 plan: %d convs, %d denses, %d pools, %d flattens", convs, denses, pools, flattens)
	}

	resnet := core.MustModel(core.Config{Arch: core.ResNet18, InC: 1, InH: 16, InW: 16, WidthScale: 0.125, Seed: 2})
	residuals := 0
	for _, op := range compileDefault(t, resnet).ops {
		if _, ok := op.(*residualOp); ok {
			residuals++
		}
	}
	if residuals != 8 {
		t.Fatalf("ResNet-18 plan has %d residual ops, want 8", residuals)
	}
}

// TestPostJoinLockSemantics: the vector-unit lock (post-residual) must
// negate exactly the scheduled neurons of every sample, on both backends.
func TestPostJoinLockSemantics(t *testing.T) {
	allOnes, _ := keys.FromBytes(bytesOf(0xFF, keys.KeyBytes))
	dev := keys.NewDevice("t", allOnes)
	sched := schedule.New(keys.KeyBits, 3)
	a, err := NewAccelerator(DefaultConfig(), dev, sched)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.FromSlice([]float64{1, -2, 3, -4, 5, -6}, 2, 3)
	for _, onMMU := range []bool{false, true} {
		a.onMMU = onMMU
		op := &lockReluOp{lockID: "post", neurons: 3, cols: a.low.MACColumns("post", 3)}
		s := &state{ops: make([]opState, 1)}
		out, err := op.run(a, s, x)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x.Data {
			if out.Data[i] != -x.Data[i] {
				t.Fatalf("onMMU=%v: all-ones key should negate every activation, got %v", onMMU, out.Data)
			}
		}
		// With relu, only the (now) positive values survive.
		op.relu = true
		out, _ = op.run(a, s, x)
		for i, v := range out.Data {
			if v < 0 || v == 0 && x.Data[i] < 0 {
				t.Fatalf("onMMU=%v: relu output %v at %d", onMMU, v, i)
			}
		}
	}
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
