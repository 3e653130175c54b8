package nn

import (
	"fmt"

	"hpnn/internal/tensor"
)

// MaxPool is a 2-D max-pooling layer over [N, C, H, W] batches. The output,
// input gradient and argmax index cache are layer-owned scratch reused
// across steps; the batch is fanned out on the worker pool through
// top-level worker functions so steady-state calls allocate nothing.
type MaxPool struct {
	Geom tensor.ConvGeom // InC/InH/InW describe per-sample input; KH/KW/Stride the window

	out, dx *tensor.Tensor
	lastArg []int // flat input index chosen per output element
	lastN   int

	// Per-call operand views read by the pool workers.
	featIn, featOut      int
	fx, fout, fgrad, fdx []float64
}

// NewMaxPool constructs a max-pooling layer. The geometry's InC/InH/InW
// must match the incoming feature maps; Pad is honoured with -inf padding
// semantics (padded cells never win).
func NewMaxPool(g tensor.ConvGeom) *MaxPool {
	if err := g.Validate(); err != nil {
		panic("nn: " + err.Error())
	}
	return &MaxPool{Geom: g}
}

// Name implements Layer.
func (m *MaxPool) Name() string {
	return fmt.Sprintf("MaxPool(%dx%d, s%d)", m.Geom.KH, m.Geom.KW, m.Geom.Stride)
}

// Params implements Layer.
func (m *MaxPool) Params() []*Param { return nil }

// Forward implements Layer.
//
//hpnn:noalloc
func (m *MaxPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	g := m.Geom
	n := x.Shape[0]
	outH, outW := g.OutH(), g.OutW()
	m.featIn = g.InLen()
	m.featOut = g.InC * outH * outW
	m.out = tensor.EnsureShape(m.out, n, g.InC, outH, outW)
	m.lastArg = tensor.EnsureInts(m.lastArg, n*m.featOut)
	m.lastN = n
	m.fx, m.fout = x.Data, m.out.Data
	tensor.ParallelCtx(n, m, maxPoolFwdWorker)
	return m.out
}

func maxPoolFwdWorker(ctx any, i int) {
	m := ctx.(*MaxPool)
	tensor.MaxPool2D(
		m.fout[i*m.featOut:(i+1)*m.featOut],
		m.lastArg[i*m.featOut:(i+1)*m.featOut],
		m.fx[i*m.featIn:(i+1)*m.featIn],
		m.Geom)
}

// Backward implements Layer.
//
//hpnn:noalloc
func (m *MaxPool) Backward(grad *tensor.Tensor) *tensor.Tensor {
	g := m.Geom
	n := m.lastN
	m.dx = tensor.EnsureShape(m.dx, n, g.InC, g.InH, g.InW)
	m.fgrad, m.fdx = grad.Data, m.dx.Data
	tensor.ParallelCtx(n, m, maxPoolBwdWorker)
	return m.dx
}

func maxPoolBwdWorker(ctx any, i int) {
	m := ctx.(*MaxPool)
	tensor.MaxPool2DGrad(
		m.fdx[i*m.featIn:(i+1)*m.featIn],
		m.fgrad[i*m.featOut:(i+1)*m.featOut],
		m.lastArg[i*m.featOut:(i+1)*m.featOut])
}

// GlobalAvgPool averages each channel's full spatial map, producing [N, C].
// ResNet-18 uses it ahead of the final classifier.
type GlobalAvgPool struct {
	lastShape []int
	out, dx   *tensor.Tensor
}

// NewGlobalAvgPool returns a global average pooling layer.
func NewGlobalAvgPool() *GlobalAvgPool { return &GlobalAvgPool{} }

// Name implements Layer.
func (g *GlobalAvgPool) Name() string { return "GlobalAvgPool" }

// Params implements Layer.
func (g *GlobalAvgPool) Params() []*Param { return nil }

// Forward implements Layer.
//
//hpnn:noalloc
func (g *GlobalAvgPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if len(x.Shape) != 4 {
		panic(fmt.Sprintf("nn: GlobalAvgPool expects [N,C,H,W], got %v", x.Shape))
	}
	g.lastShape = append(g.lastShape[:0], x.Shape...)
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	pix := h * w
	g.out = tensor.EnsureShape(g.out, n, c)
	inv := 1 / float64(pix)
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			base := (i*c + ch) * pix
			s := 0.0
			for p := 0; p < pix; p++ {
				s += x.Data[base+p]
			}
			g.out.Data[i*c+ch] = s * inv
		}
	}
	return g.out
}

// Backward implements Layer.
//
//hpnn:noalloc
func (g *GlobalAvgPool) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := g.lastShape[0], g.lastShape[1], g.lastShape[2], g.lastShape[3]
	pix := h * w
	g.dx = tensor.EnsureShape(g.dx, n, c, h, w)
	inv := 1 / float64(pix)
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			gv := grad.Data[i*c+ch] * inv
			base := (i*c + ch) * pix
			for p := 0; p < pix; p++ {
				g.dx.Data[base+p] = gv
			}
		}
	}
	return g.dx
}
