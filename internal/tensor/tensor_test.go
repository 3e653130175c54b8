package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"hpnn/internal/rng"
)

func TestNewZeroFilled(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 {
		t.Fatalf("Len = %d, want 24", x.Len())
	}
	for _, v := range x.Data {
		if v != 0 {
			t.Fatal("New tensor not zero-filled")
		}
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(3, 4, 5)
	n := 0.0
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			for k := 0; k < 5; k++ {
				x.Set(n, i, j, k)
				n++
			}
		}
	}
	// Row-major: last index fastest.
	for i := range x.Data {
		if x.Data[i] != float64(i) {
			t.Fatalf("row-major layout broken at %d: %v", i, x.Data[i])
		}
	}
	if x.At(2, 3, 4) != 59 {
		t.Fatalf("At(2,3,4) = %v, want 59", x.At(2, 3, 4))
	}
}

func TestAtOutOfBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds At did not panic")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestReshapeSharesData(t *testing.T) {
	x := New(2, 6)
	y := x.Reshape(3, 4)
	y.Data[0] = 7
	if x.Data[0] != 7 {
		t.Fatal("Reshape must share the backing data")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched Reshape did not panic")
		}
	}()
	x.Reshape(5, 5)
}

func TestCloneIndependent(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	y := x.Clone()
	y.Data[0] = 9
	if x.Data[0] != 1 {
		t.Fatal("Clone must not alias the original")
	}
}

func TestFromSliceLengthCheck(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with bad length did not panic")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestAddScaledAndScale(t *testing.T) {
	x := FromSlice([]float64{1, 2}, 2)
	y := FromSlice([]float64{10, 20}, 2)
	x.AddScaled(0.5, y)
	if x.Data[0] != 6 || x.Data[1] != 12 {
		t.Fatalf("AddScaled wrong: %v", x.Data)
	}
	x.Scale(2)
	if x.Data[0] != 12 || x.Data[1] != 24 {
		t.Fatalf("Scale wrong: %v", x.Data)
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("MatMul[%d] = %v, want %v", i, c.Data[i], v)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	r := rng.New(5)
	a := New(7, 7)
	a.FillNorm(r, 0, 1)
	id := New(7, 7)
	for i := 0; i < 7; i++ {
		id.Set(1, i, i)
	}
	if !Equal(MatMul(a, id), a, 1e-12) || !Equal(MatMul(id, a), a, 1e-12) {
		t.Fatal("identity matmul changed the matrix")
	}
}

// naiveMatMul is a reference used by the property tests.
func naiveMatMul(a, b *Tensor) *Tensor {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			c.Set(s, i, j)
		}
	}
	return c
}

func randTensor(r *rng.Rand, shape ...int) *Tensor {
	x := New(shape...)
	x.FillNorm(r, 0, 1)
	return x
}

func TestMatMulMatchesNaiveProperty(t *testing.T) {
	f := func(seed uint64, mr, kr, nr uint8) bool {
		m, k, n := int(mr%16)+1, int(kr%16)+1, int(nr%16)+1
		r := rng.New(seed)
		a, b := randTensor(r, m, k), randTensor(r, k, n)
		return Equal(MatMul(a, b), naiveMatMul(a, b), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulNTAndTN(t *testing.T) {
	r := rng.New(11)
	a := randTensor(r, 5, 7)
	b := randTensor(r, 4, 7) // B is n×k for NT
	if !Equal(MatMulNT(a, b), MatMul(a, Transpose(b)), 1e-9) {
		t.Fatal("MatMulNT != A·Bᵀ")
	}
	c := randTensor(r, 7, 5) // A is k×m for TN
	d := randTensor(r, 7, 6)
	if !Equal(MatMulTN(c, d), MatMul(Transpose(c), d), 1e-9) {
		t.Fatal("MatMulTN != Aᵀ·B")
	}
}

func TestMatMulDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MatMul with mismatched dims did not panic")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed uint64, mr, nr uint8) bool {
		m, n := int(mr%12)+1, int(nr%12)+1
		a := randTensor(rng.New(seed), m, n)
		return Equal(Transpose(Transpose(a)), a, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMatVec(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y := MatVec(a, []float64{1, 0, -1})
	if y[0] != -2 || y[1] != -2 {
		t.Fatalf("MatVec wrong: %v", y)
	}
}

func TestParallelCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 3, 17, 100, 1000} {
		hits := make([]int32, n)
		ParallelCtx(n, hits, func(ctx any, i int) { ctx.([]int32)[i]++ })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d index %d visited %d times", n, i, h)
			}
		}
	}
}

func TestSetMaxWorkers(t *testing.T) {
	prev := SetMaxWorkers(1)
	defer SetMaxWorkers(prev)
	sum := 0
	ParallelCtx(10, &sum, func(ctx any, i int) { *ctx.(*int) += i }) // safe with 1 worker
	if sum != 45 {
		t.Fatalf("single-worker ParallelCtx sum = %d", sum)
	}
}

func TestArgmax(t *testing.T) {
	if Argmax([]float64{1, 5, 3}) != 1 {
		t.Fatal("Argmax basic failed")
	}
	if Argmax([]float64{2, 2, 2}) != 0 {
		t.Fatal("Argmax tie should pick first")
	}
	if Argmax([]float64{math.Inf(-1), -4}) != 1 {
		t.Fatal("Argmax with -inf failed")
	}
}

func TestSumNormStats(t *testing.T) {
	x := FromSlice([]float64{3, -4}, 2)
	if x.Sum() != -1 {
		t.Fatal("Sum wrong")
	}
	if x.L2Norm() != 5 {
		t.Fatal("L2Norm wrong")
	}
	if x.MaxAbs() != 4 {
		t.Fatal("MaxAbs wrong")
	}
}
