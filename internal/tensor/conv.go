package tensor

import "fmt"

// ConvGeom describes the geometry of a 2-D convolution or pooling window.
type ConvGeom struct {
	InC, InH, InW int // input channels / height / width
	KH, KW        int // kernel size
	Stride        int
	Pad           int // symmetric zero padding
}

// OutH returns the output height for the geometry.
func (g ConvGeom) OutH() int { return (g.InH+2*g.Pad-g.KH)/g.Stride + 1 }

// OutW returns the output width for the geometry.
func (g ConvGeom) OutW() int { return (g.InW+2*g.Pad-g.KW)/g.Stride + 1 }

// InLen returns the number of elements of one input image (C·H·W).
func (g ConvGeom) InLen() int { return g.InC * g.InH * g.InW }

// ColRows returns the row count of the im2col matrix (C·KH·KW).
func (g ConvGeom) ColRows() int { return g.InC * g.KH * g.KW }

// Validate checks that the geometry yields a non-empty output.
func (g ConvGeom) Validate() error {
	if g.InC <= 0 || g.InH <= 0 || g.InW <= 0 {
		return fmt.Errorf("tensor: invalid input dims %dx%dx%d", g.InC, g.InH, g.InW)
	}
	if g.KH <= 0 || g.KW <= 0 || g.Stride <= 0 || g.Pad < 0 {
		return fmt.Errorf("tensor: invalid kernel %dx%d stride %d pad %d", g.KH, g.KW, g.Stride, g.Pad)
	}
	if g.OutH() <= 0 || g.OutW() <= 0 {
		return fmt.Errorf("tensor: empty conv output for geom %+v", g)
	}
	return nil
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

// Im2ColSlice is the raw-slice core of Im2Col, for callers that window
// per-sample regions out of a batch buffer without allocating tensor
// headers. dst must hold ColRows()·OutH()·OutW() values, src InLen().
func Im2ColSlice(dst, src []float64, g ConvGeom) {
	outH, outW := g.OutH(), g.OutW()
	cols := outH * outW
	r := 0
	for c := 0; c < g.InC; c++ {
		chanBase := c * g.InH * g.InW
		for ky := 0; ky < g.KH; ky++ {
			for kx := 0; kx < g.KW; kx++ {
				rowBase := r * cols
				for oy := 0; oy < outH; oy++ {
					iy := oy*g.Stride + ky - g.Pad
					outBase := rowBase + oy*outW
					if iy < 0 || iy >= g.InH {
						for ox := 0; ox < outW; ox++ {
							dst[outBase+ox] = 0
						}
						continue
					}
					inBase := chanBase + iy*g.InW
					for ox := 0; ox < outW; ox++ {
						ix := ox*g.Stride + kx - g.Pad
						if ix < 0 || ix >= g.InW {
							dst[outBase+ox] = 0
						} else {
							dst[outBase+ox] = src[inBase+ix]
						}
					}
				}
				r++
			}
		}
	}
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

// Col2ImSlice is the raw-slice core of Col2Im. dst (length InLen()) is
// zeroed, then overlapping receptive-field contributions from src are
// accumulated into it.
func Col2ImSlice(dst, src []float64, g ConvGeom) {
	for i := range dst {
		dst[i] = 0
	}
	outH, outW := g.OutH(), g.OutW()
	cols := outH * outW
	r := 0
	for c := 0; c < g.InC; c++ {
		chanBase := c * g.InH * g.InW
		for ky := 0; ky < g.KH; ky++ {
			for kx := 0; kx < g.KW; kx++ {
				rowBase := r * cols
				for oy := 0; oy < outH; oy++ {
					iy := oy*g.Stride + ky - g.Pad
					if iy < 0 || iy >= g.InH {
						continue
					}
					inBase := chanBase + iy*g.InW
					outBase := rowBase + oy*outW
					for ox := 0; ox < outW; ox++ {
						ix := ox*g.Stride + kx - g.Pad
						if ix < 0 || ix >= g.InW {
							continue
						}
						dst[inBase+ix] += src[outBase+ox]
					}
				}
				r++
			}
		}
	}
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
