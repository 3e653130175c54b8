package tensor

// Reference kernels and test-only accessors. The library lowers every
// product and convolution onto the packed GEMM engine through the *Into and
// *Slice entry points; the allocating wrappers and the direct convolution
// below are what the property tests compare that engine against, so they
// live with the tests.

// MatMul computes C = A·B for 2-D tensors A (m×k) and B (k×n).
func MatMul(a, b *Tensor) *Tensor {
	m, _ := dims2(a, "MatMul lhs")
	_, n := dims2(b, "MatMul rhs")
	return MatMulInto(New(m, n), a, b)
}

// MatMulNT computes C = A·Bᵀ where A is m×k and B is n×k.
func MatMulNT(a, b *Tensor) *Tensor {
	m, _ := dims2(a, "MatMulNT lhs")
	n, _ := dims2(b, "MatMulNT rhs")
	return MatMulNTInto(New(m, n), a, b)
}

// MatMulTN computes C = Aᵀ·B where A is k×m and B is k×n.
func MatMulTN(a, b *Tensor) *Tensor {
	_, m := dims2(a, "MatMulTN lhs")
	_, n := dims2(b, "MatMulTN rhs")
	return MatMulTNInto(New(m, n), a, b)
}

// Transpose returns Aᵀ for a 2-D tensor.
func Transpose(a *Tensor) *Tensor {
	m, n := dims2(a, "Transpose")
	return TransposeInto(New(n, m), a)
}

// TransposeInto computes dst = Aᵀ, reusing dst's storage. dst must be n×m
// for an m×n input.
func TransposeInto(dst, a *Tensor) *Tensor {
	m, n := dims2(a, "Transpose")
	if len(dst.Data) != m*n {
		panic("tensor: TransposeInto destination size mismatch")
	}
	for i := 0; i < m; i++ {
		row := a.Data[i*n : (i+1)*n]
		for j, v := range row {
			dst.Data[j*m+i] = v
		}
	}
	return dst
}

// MatVec computes y = A·x for A m×k and x of length k. It allocates the
// result on every call; hot paths should use MatVecInto with caller-owned
// storage.
func MatVec(a *Tensor, x []float64) []float64 {
	m, _ := dims2(a, "MatVec")
	y := make([]float64, m)
	MatVecInto(y, a, x)
	return y
}

// Im2Col lowers a single [C,H,W] image to the column matrix used by
// GEMM-based convolution. Result shape: [C*KH*KW, OutH*OutW]; column p
// holds the receptive field of output pixel p, zero-filled where the
// window overlaps padding.
func Im2Col(img *Tensor, g ConvGeom) *Tensor {
	col := New(g.ColRows(), g.OutH()*g.OutW())
	Im2ColInto(col, img, g)
	return col
}

// Im2ColInto is Im2Col writing into a preallocated destination.
func Im2ColInto(col, img *Tensor, g ConvGeom) {
	Im2ColSlice(col.Data, img.Data, g)
}

// Col2Im scatters a column matrix (the gradient w.r.t. an Im2Col result)
// back into image space, accumulating overlapping contributions. It is the
// exact adjoint of Im2Col.
func Col2Im(col *Tensor, g ConvGeom) *Tensor {
	img := New(g.InC, g.InH, g.InW)
	Col2ImInto(img, col, g)
	return img
}

// Col2ImInto is Col2Im writing into a preallocated destination, which is
// zeroed before the scatter.
func Col2ImInto(img, col *Tensor, g ConvGeom) {
	Col2ImSlice(img.Data, col.Data, g)
}

// ConvDirect computes a 2-D convolution of a [C,H,W] image with kernels
// [outC, C, KH, KW] by direct summation. It is O(outC·C·KH·KW·outH·outW)
// and exists as the reference implementation that the GEMM path is tested
// against.
func ConvDirect(img, kernels *Tensor, g ConvGeom) *Tensor {
	out := New(kernels.Shape[0], g.OutH(), g.OutW())
	ConvDirectInto(out, img, kernels, g)
	return out
}

// ConvDirectInto is ConvDirect writing into a preallocated destination of
// shape [outC, OutH, OutW].
func ConvDirectInto(out, img, kernels *Tensor, g ConvGeom) {
	outC := kernels.Shape[0]
	outH, outW := g.OutH(), g.OutW()
	if len(out.Data) != outC*outH*outW {
		panic("tensor: ConvDirectInto destination size mismatch")
	}
	// Flat indexing instead of At(): the variadic index slices would
	// allocate in the innermost loop.
	for oc := 0; oc < outC; oc++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				s := 0.0
				for c := 0; c < g.InC; c++ {
					imgBase := c * g.InH * g.InW
					kernBase := (oc*g.InC + c) * g.KH * g.KW
					for ky := 0; ky < g.KH; ky++ {
						iy := oy*g.Stride + ky - g.Pad
						if iy < 0 || iy >= g.InH {
							continue
						}
						for kx := 0; kx < g.KW; kx++ {
							ix := ox*g.Stride + kx - g.Pad
							if ix < 0 || ix >= g.InW {
								continue
							}
							s += img.Data[imgBase+iy*g.InW+ix] * kernels.Data[kernBase+ky*g.KW+kx]
						}
					}
				}
				out.Data[(oc*outH+oy)*outW+ox] = s
			}
		}
	}
}
