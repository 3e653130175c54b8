package tensor

import "fmt"

// The tensor-level matrix products validate shapes and lower onto the
// packed, cache-blocked GEMM engine in gemm.go, which parallelizes over
// the 2-D output tile grid. That grid is what keeps small-m products —
// per-sample convolution-backward slices, small-batch dense layers — from
// collapsing to a serial kernel the way the old rows-only partitioning
// did. Slice-level serial entry points for callers that own their own
// parallelism (MatMulSliceInto and friends) live alongside the engine.

// MatMulInto computes dst = A·B, reusing dst's storage. dst must be m×n.
func MatMulInto(dst, a, b *Tensor) *Tensor {
	m, k := dims2(a, "MatMul lhs")
	k2, n := dims2(b, "MatMul rhs")
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dims %d != %d", k, k2))
	}
	if len(dst.Data) != m*n {
		panic("tensor: MatMulInto destination size mismatch")
	}
	gemmRun(dst.Data, a.Data, b.Data, m, n, k, gemmNN, true)
	return dst
}

// MatMulNTInto computes dst = A·Bᵀ, reusing dst's storage. dst must be m×n.
func MatMulNTInto(dst, a, b *Tensor) *Tensor {
	m, k := dims2(a, "MatMulNT lhs")
	n, k2 := dims2(b, "MatMulNT rhs")
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulNT inner dims %d != %d", k, k2))
	}
	if len(dst.Data) != m*n {
		panic("tensor: MatMulNTInto destination size mismatch")
	}
	gemmRun(dst.Data, a.Data, b.Data, m, n, k, gemmNT, true)
	return dst
}

// MatMulTNInto computes dst = Aᵀ·B, reusing dst's storage. dst must be m×n.
func MatMulTNInto(dst, a, b *Tensor) *Tensor {
	k, m := dims2(a, "MatMulTN lhs")
	k2, n := dims2(b, "MatMulTN rhs")
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTN inner dims %d != %d", k, k2))
	}
	if len(dst.Data) != m*n {
		panic("tensor: MatMulTNInto destination size mismatch")
	}
	gemmRun(dst.Data, a.Data, b.Data, m, n, k, gemmTN, true)
	return dst
}

// MatVecInto computes y = A·x into a caller-provided y of length m.
func MatVecInto(y []float64, a *Tensor, x []float64) {
	m, k := dims2(a, "MatVec")
	if len(x) != k {
		panic(fmt.Sprintf("tensor: MatVec vector length %d != %d", len(x), k))
	}
	if len(y) != m {
		panic(fmt.Sprintf("tensor: MatVec destination length %d != %d", len(y), m))
	}
	gemmRun(y, a.Data, x, m, 1, k, gemmNN, true)
}

func dims2(t *Tensor, what string) (int, int) {
	if len(t.Shape) != 2 {
		panic(fmt.Sprintf("tensor: %s requires a 2-D tensor, got %v", what, t.Shape))
	}
	return t.Shape[0], t.Shape[1]
}
