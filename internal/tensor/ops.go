package tensor

import "fmt"

// Row/column reductions and broadcasts over 2-D tensors — the bias-add and
// bias-gradient primitives of the dense and convolution layers, exposed as
// allocation-free kernels.

// AddRowBroadcast adds row (length n) to every row of the m×n tensor t.
//
//hpnn:noalloc
func AddRowBroadcast(t *Tensor, row []float64) {
	m, n := dims2(t, "AddRowBroadcast")
	if len(row) != n {
		panic(fmt.Sprintf("tensor: AddRowBroadcast row length %d != %d", len(row), n))
	}
	for i := 0; i < m; i++ {
		trow := t.Data[i*n : (i+1)*n]
		for j, v := range row {
			trow[j] += v
		}
	}
}

// AddColSums accumulates the column sums of the m×n tensor t into dst
// (length n): dst[j] += Σ_i t[i][j]. Used for bias gradients, which add
// into an existing accumulator.
//
//hpnn:noalloc
func AddColSums(dst []float64, t *Tensor) {
	m, n := dims2(t, "AddColSums")
	if len(dst) != n {
		panic(fmt.Sprintf("tensor: AddColSums destination length %d != %d", len(dst), n))
	}
	for i := 0; i < m; i++ {
		trow := t.Data[i*n : (i+1)*n]
		for j, v := range trow {
			dst[j] += v
		}
	}
}
