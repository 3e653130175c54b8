package tensor

import (
	"math"
	"testing"

	"hpnn/internal/rng"
)

// gemmShapes are the property-test shapes: every m/n combination crosses a
// micro-tile boundary (1, just-under, exact, just-over multiples of the
// 4×8 register tile) and k crosses the kc=256 block boundary, including a
// two-and-a-bit-block 513 and the degenerate k=1.
var gemmShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 7, 9},
	{3, 5, 1},
	{4, 8, 8},
	{5, 3, 7},
	{7, 255, 17},
	{8, 256, 8},
	{9, 257, 15},
	{16, 64, 33},
	{31, 513, 5},
	{32, 100, 32},
	{33, 258, 41},
}

// gemmClose compares blocked output against the naive reference with a
// tolerance covering reassociation and FMA rounding (the blocked kernel
// sums in packed-lane order and the assembly kernel skips intermediate
// rounding, so bitwise equality with the reference is not expected).
func gemmClose(t *testing.T, what string, got, want []float64, m, k, n int) {
	t.Helper()
	for i := range want {
		g, w := got[i], want[i]
		tol := 1e-9 * (1 + math.Abs(w))
		if math.Abs(g-w) > tol {
			t.Fatalf("%s m=%d k=%d n=%d: elem %d = %g, reference %g", what, m, k, n, i, g, w)
		}
	}
}

// TestGEMMMatchesNaive cross-checks all three blocked variants against the
// retained naive kernels over the edge-shape grid, exercising both the
// tensor-level (parallel) and slice-level (serial) entry points.
func TestGEMMMatchesNaive(t *testing.T) {
	r := rng.New(11)
	for _, s := range gemmShapes {
		a := New(s.m, s.k)
		a.FillNorm(r, 0, 1)
		b := New(s.k, s.n)
		b.FillNorm(r, 0, 1)
		at := Transpose(a) // k×m
		bt := Transpose(b) // n×k
		want := make([]float64, s.m*s.n)

		naiveMatMulSlice(want, a.Data, b.Data, s.m, s.k, s.n)
		got := MatMul(a, b)
		gemmClose(t, "MatMul", got.Data, want, s.m, s.k, s.n)
		gotS := make([]float64, s.m*s.n)
		MatMulSliceInto(gotS, a.Data, b.Data, s.m, s.k, s.n)
		gemmClose(t, "MatMulSliceInto", gotS, want, s.m, s.k, s.n)

		naiveMatMulNTSlice(want, a.Data, bt.Data, s.m, s.k, s.n)
		got = MatMulNT(a, bt)
		gemmClose(t, "MatMulNT", got.Data, want, s.m, s.k, s.n)
		MatMulNTSliceInto(gotS, a.Data, bt.Data, s.m, s.k, s.n)
		gemmClose(t, "MatMulNTSliceInto", gotS, want, s.m, s.k, s.n)

		naiveMatMulTNSlice(want, at.Data, b.Data, s.k, s.m, s.n)
		got = MatMulTN(at, b)
		gemmClose(t, "MatMulTN", got.Data, want, s.m, s.k, s.n)
		MatMulTNSliceInto(gotS, at.Data, b.Data, s.k, s.m, s.n)
		gemmClose(t, "MatMulTNSliceInto", gotS, want, s.m, s.k, s.n)
	}
}

// TestGEMMRandomizedShapes fuzzes random dimensions (including frequent
// small values, where tile-edge handling lives) against the reference.
func TestGEMMRandomizedShapes(t *testing.T) {
	r := rng.New(23)
	dim := func() int {
		if r.Intn(3) == 0 {
			return 1 + r.Intn(9)
		}
		return 1 + r.Intn(70)
	}
	for it := 0; it < 60; it++ {
		m, k, n := dim(), dim(), dim()
		a := New(m, k)
		a.FillNorm(r, 0, 1)
		b := New(k, n)
		b.FillNorm(r, 0, 1)
		want := make([]float64, m*n)
		naiveMatMulSlice(want, a.Data, b.Data, m, k, n)
		gemmClose(t, "MatMul", MatMul(a, b).Data, want, m, k, n)
	}
}

// TestGEMMDeterministicAcrossWorkers asserts the engine's core invariant:
// the same product is bitwise identical whatever the worker count, because
// workers partition the fixed tile grid and never reduce concurrently.
// Shapes span one and several kc blocks and ragged tile edges.
func TestGEMMDeterministicAcrossWorkers(t *testing.T) {
	r := rng.New(37)
	shapes := []struct{ m, k, n int }{{33, 257, 41}, {8, 600, 8}, {5, 64, 1}, {64, 513, 19}}
	for _, s := range shapes {
		a := New(s.m, s.k)
		a.FillNorm(r, 0, 1)
		b := New(s.k, s.n)
		b.FillNorm(r, 0, 1)
		bt := Transpose(b)
		at := Transpose(a)
		ref := [3]*Tensor{New(s.m, s.n), New(s.m, s.n), New(s.m, s.n)}
		got := [3]*Tensor{New(s.m, s.n), New(s.m, s.n), New(s.m, s.n)}
		prev := SetMaxWorkers(1)
		MatMulInto(ref[0], a, b)
		MatMulNTInto(ref[1], a, bt)
		MatMulTNInto(ref[2], at, b)
		for _, workers := range []int{2, 8} {
			SetMaxWorkers(workers)
			MatMulInto(got[0], a, b)
			MatMulNTInto(got[1], a, bt)
			MatMulTNInto(got[2], at, b)
			for v := range ref {
				for i, w := range ref[v].Data {
					if got[v].Data[i] != w {
						t.Fatalf("variant %d m=%d k=%d n=%d workers=%d: elem %d = %v, 1-worker run produced %v",
							v, s.m, s.k, s.n, workers, i, got[v].Data[i], w)
					}
				}
			}
		}
		SetMaxWorkers(prev)
	}
}

// TestGEMMExactOnInt8Codes pins the fact the batched inference tier
// (internal/tpu) rests on: over int8 codes in [−127, 127] held as float64,
// every product is at most 127² and every partial sum an integer of
// magnitude at most k·127² < 2⁵³, so the packed GEMM returns the exact
// integer product. k straddles the kc block and reaches full-width
// ResNet-18's largest shared dimension; n = 1 takes the skinny path and
// n = 13 the tile grid; both the assembly and the portable micro-kernel
// run. Random codes sit beside all-±127 operands, the largest sums.
func TestGEMMExactOnInt8Codes(t *testing.T) {
	defer func(fma bool) { gemmUseFMA = fma }(gemmUseFMA)
	r := rng.New(53)
	fill := func(dst []float64, v int) {
		for i := range dst {
			if v == 0 {
				dst[i] = float64(int(r.Uint64()%255) - 127)
			} else {
				dst[i] = float64(v)
			}
		}
	}
	const m = 5
	for _, k := range []int{1, 255, 256, 257, 4608} {
		for _, n := range []int{1, 13} {
			for _, fv := range [][2]int{{0, 0}, {127, -127}, {-127, -127}} {
				a := make([]float64, m*k)
				b := make([]float64, k*n) // [k, n] for NN
				fill(a, fv[0])
				fill(b, fv[1])
				bt := make([]float64, n*k) // [n, k] for NT
				for p := 0; p < k; p++ {
					for c := 0; c < n; c++ {
						bt[c*k+p] = b[p*n+c]
					}
				}
				want := make([]int64, m*n)
				for i := 0; i < m; i++ {
					for c := 0; c < n; c++ {
						var s int64
						for p := 0; p < k; p++ {
							s += int64(a[i*k+p]) * int64(b[p*n+c])
						}
						want[i*n+c] = s
					}
				}
				for _, fma := range []bool{false, gemmCPUSupportsFMA()} {
					gemmUseFMA = fma
					nn := make([]float64, m*n)
					nt := make([]float64, m*n)
					MatMulSliceInto(nn, a, b, m, k, n)
					MatMulNTSliceInto(nt, a, bt, m, k, n)
					for i, w := range want {
						if nn[i] != float64(w) || nt[i] != float64(w) {
							t.Fatalf("k=%d n=%d fill=%v fma=%v elem %d: NN %v, NT %v, exact %d",
								k, n, fv, fma, i, nn[i], nt[i], w)
						}
					}
				}
			}
		}
	}
}

// TestGEMMReusesDst verifies the first-kc-block overwrite semantics: a
// destination full of garbage must come out identical to a fresh one.
func TestGEMMReusesDst(t *testing.T) {
	r := rng.New(41)
	a := New(9, 300)
	a.FillNorm(r, 0, 1)
	b := New(300, 13)
	b.FillNorm(r, 0, 1)
	fresh := MatMul(a, b)
	dirty := New(9, 13)
	for i := range dirty.Data {
		dirty.Data[i] = math.Inf(1)
	}
	MatMulInto(dirty, a, b)
	for i, w := range fresh.Data {
		if dirty.Data[i] != w {
			t.Fatalf("elem %d = %v after reuse, %v fresh", i, dirty.Data[i], w)
		}
	}
}

// TestMatVecMatchesGEMM pins the n==1 skinny path to the full engine and
// the naive reference.
func TestMatVecMatchesGEMM(t *testing.T) {
	r := rng.New(43)
	for _, s := range []struct{ m, k int }{{1, 1}, {7, 300}, {64, 513}} {
		a := New(s.m, s.k)
		a.FillNorm(r, 0, 1)
		x := make([]float64, s.k)
		for i := range x {
			x[i] = r.Float64() - 0.5
		}
		want := make([]float64, s.m)
		naiveMatMulSlice(want, a.Data, x, s.m, s.k, 1)
		got := MatVec(a, x)
		gemmClose(t, "MatVec", got, want, s.m, s.k, 1)
	}
}

// TestGEMMZeroK checks the degenerate k=0 contract: dst is zeroed, not
// left stale.
func TestGEMMZeroK(t *testing.T) {
	dst := []float64{1, 2, 3, 4, 5, 6}
	MatMulSliceInto(dst, nil, nil, 2, 0, 3)
	for i, v := range dst {
		if v != 0 {
			t.Fatalf("elem %d = %v, want 0", i, v)
		}
	}
}

// TestGEMMSliceLengthChecks pins the slice entry points' operand
// validation.
func TestGEMMSliceLengthChecks(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("short operand did not panic")
		}
	}()
	MatMulSliceInto(make([]float64, 3), make([]float64, 4), make([]float64, 4), 2, 2, 2)
}
