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

// Im2ColSlice lowers one [C,H,W] image to the column matrix used by
// GEMM-based convolution, [C*KH*KW, OutH*OutW]: column p holds the
// receptive field of output pixel p, zero-filled where the window overlaps
// padding. It works on raw slices, so callers window per-sample regions
// out of a batch buffer without allocating tensor headers. dst must hold
// ColRows()·OutH()·OutW() values, src InLen().
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

// Col2ImSlice scatters a column matrix (the gradient w.r.t. an Im2ColSlice
// result) back into image space, the exact adjoint of Im2ColSlice. dst
// (length InLen()) is zeroed, then overlapping receptive-field
// contributions from src are accumulated into it.
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
