package tensor

import "math"

// Single-image pooling and padding kernels on raw slices. The nn pooling
// layers fan these out across the batch on the worker pool; keeping the
// cores here (rather than inlined in the layers) gives the accelerator
// simulator and future backends one shared, tested implementation.

// MaxPool2D max-pools one [C,H,W] image described by g into dst
// ([C,OutH,OutW]), recording the winning flat source index per output cell
// in arg (-1 when the window saw only padding). Padded cells never win.
//
//hpnn:noalloc
func MaxPool2D(dst []float64, arg []int, src []float64, g ConvGeom) {
	outH, outW := g.OutH(), g.OutW()
	o := 0
	for c := 0; c < g.InC; c++ {
		base := c * g.InH * g.InW
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				best := math.Inf(-1)
				bestIdx := -1
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
						idx := base + iy*g.InW + ix
						if src[idx] > best {
							best = src[idx]
							bestIdx = idx
						}
					}
				}
				dst[o] = best
				arg[o] = bestIdx
				o++
			}
		}
	}
}

// MaxPool2DGrad scatters pooled gradients back through the argmax indices
// recorded by MaxPool2D. dx is zeroed first.
//
//hpnn:noalloc
func MaxPool2DGrad(dx, grad []float64, arg []int) {
	for i := range dx {
		dx[i] = 0
	}
	for o, a := range arg {
		if a >= 0 {
			dx[a] += grad[o]
		}
	}
}
