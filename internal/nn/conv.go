package nn

import (
	"fmt"

	"hpnn/internal/rng"
	"hpnn/internal/tensor"
)

// Conv2D is a 2-D convolution layer over [N, C, H, W] batches, lowered to
// GEMM through im2col. Weights have shape [OutC, InC, KH, KW].
//
// All forward/backward scratch — the output, the per-sample im2col
// matrices, the input gradient and the per-sample weight-gradient partials
// — is layer-owned and reused across steps; the batch fans out on the
// worker pool through top-level worker functions (the layer pointer is the
// dispatch context), so a steady-state step allocates nothing.
type Conv2D struct {
	Geom tensor.ConvGeom
	OutC int
	W    *Param // [OutC, InC*KH*KW] (flattened kernel bank)
	B    *Param // [OutC]

	lastX   *tensor.Tensor
	out, dx *tensor.Tensor
	// cols holds the n stacked im2col matrices from the last forward; the
	// backward pass reuses each sample's region in place for dcol once its
	// weight-gradient partial has been taken.
	cols []float64
	// dW/dB are per-sample gradient partials, reduced serially after the
	// parallel region so the backward pass stays deterministic.
	dW, dB []float64

	// Per-call geometry and operand views read by the pool workers.
	n, pix, rows, featIn, featOut int
	fx, fout, fgrad, fdx          []float64
}

// NewConv2D constructs a convolution layer. Parameters start at zero; call
// InitHe to randomize.
func NewConv2D(g tensor.ConvGeom, outC int) *Conv2D {
	if err := g.Validate(); err != nil {
		panic("nn: " + err.Error())
	}
	k := g.InC * g.KH * g.KW
	return &Conv2D{
		Geom: g,
		OutC: outC,
		W:    NewParam(fmt.Sprintf("conv_%dx%dx%dx%d.W", outC, g.InC, g.KH, g.KW), outC, k),
		B:    NewParam(fmt.Sprintf("conv_%d.B", outC), outC),
	}
}

// Name implements Layer.
func (c *Conv2D) Name() string {
	return fmt.Sprintf("Conv2D(%d→%d, %dx%d, s%d, p%d)",
		c.Geom.InC, c.OutC, c.Geom.KH, c.Geom.KW, c.Geom.Stride, c.Geom.Pad)
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }

// InitHe applies He-normal initialization over the kernel fan-in.
func (c *Conv2D) InitHe(r *rng.Rand) *Conv2D {
	fanIn := float64(c.Geom.InC * c.Geom.KH * c.Geom.KW)
	c.W.Value.FillNorm(r, 0, sqrt(2/fanIn))
	c.B.Value.Zero()
	return c
}

// Forward implements Layer.
//
//hpnn:noalloc
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	g := c.Geom
	if len(x.Shape) != 4 || x.Shape[1] != g.InC || x.Shape[2] != g.InH || x.Shape[3] != g.InW {
		panic(fmt.Sprintf("nn: Conv2D expects [N,%d,%d,%d], got %v", g.InC, g.InH, g.InW, x.Shape))
	}
	n := x.Shape[0]
	outH, outW := g.OutH(), g.OutW()
	c.n, c.pix, c.rows = n, outH*outW, g.ColRows()
	c.featIn, c.featOut = g.InLen(), c.OutC*outH*outW
	c.lastX = x
	c.out = tensor.EnsureShape(c.out, n, c.OutC, outH, outW)
	c.cols = tensor.EnsureFloats(c.cols, n*c.rows*c.pix)
	c.fx, c.fout = x.Data, c.out.Data
	tensor.ParallelCtx(n, c, convFwdWorker)
	return c.out
}

// convFwdWorker lowers sample i to columns and runs the kernel GEMM
// serially (the batch dimension already saturates the worker pool).
func convFwdWorker(ctx any, i int) {
	c := ctx.(*Conv2D)
	colLen := c.rows * c.pix
	col := c.cols[i*colLen : (i+1)*colLen]
	tensor.Im2ColSlice(col, c.fx[i*c.featIn:(i+1)*c.featIn], c.Geom)
	out := c.fout[i*c.featOut : (i+1)*c.featOut]
	tensor.MatMulSliceInto(out, c.W.Value.Data, col, c.OutC, c.rows, c.pix)
	bd := c.B.Value.Data
	for oc := 0; oc < c.OutC; oc++ {
		row := out[oc*c.pix : (oc+1)*c.pix]
		b := bd[oc]
		for p := range row {
			row[p] += b
		}
	}
}

// Backward implements Layer.
//
//hpnn:noalloc
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	g := c.Geom
	n := grad.Shape[0]
	c.dx = tensor.EnsureShape(c.dx, n, g.InC, g.InH, g.InW)
	c.dW = tensor.EnsureFloats(c.dW, n*c.OutC*c.rows)
	c.dB = tensor.EnsureFloats(c.dB, n*c.OutC)
	c.fgrad, c.fdx = grad.Data, c.dx.Data
	tensor.ParallelCtx(n, c, convBwdWorker)
	// Per-sample partials reduce serially in sample order, keeping the
	// backward pass bitwise deterministic.
	wg, bg := c.W.Grad.Data, c.B.Grad.Data
	wLen := len(wg)
	for i := 0; i < n; i++ {
		part := c.dW[i*wLen : (i+1)*wLen]
		for j, v := range part {
			wg[j] += v
		}
		partB := c.dB[i*c.OutC : (i+1)*c.OutC]
		for j, v := range partB {
			bg[j] += v
		}
	}
	return c.dx
}

// convBwdWorker computes sample i's weight/bias partials, then reuses the
// sample's im2col region for dcol and scatters it back to image space.
func convBwdWorker(ctx any, i int) {
	c := ctx.(*Conv2D)
	colLen := c.rows * c.pix
	col := c.cols[i*colLen : (i+1)*colLen]
	gOut := c.fgrad[i*c.featOut : (i+1)*c.featOut]
	// dW_i = gOut · colᵀ  -> [OutC, rows]
	tensor.MatMulNTSliceInto(c.dW[i*c.OutC*c.rows:(i+1)*c.OutC*c.rows], gOut, col, c.OutC, c.pix, c.rows)
	dB := c.dB[i*c.OutC : (i+1)*c.OutC]
	for oc := 0; oc < c.OutC; oc++ {
		row := gOut[oc*c.pix : (oc+1)*c.pix]
		s := 0.0
		for _, v := range row {
			s += v
		}
		dB[oc] = s
	}
	// dcol = Wᵀ · gOut -> [rows, pix], overwriting col; scatter to image.
	tensor.MatMulTNSliceInto(col, c.W.Value.Data, gOut, c.OutC, c.rows, c.pix)
	tensor.Col2ImSlice(c.fdx[i*c.featIn:(i+1)*c.featIn], col, c.Geom)
}
