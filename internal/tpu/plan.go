package tpu

import (
	"fmt"
	"strconv"

	"hpnn/internal/core"
	"hpnn/internal/nn"
	"hpnn/internal/tensor"
)

// This file is the accelerator's model compiler and its executor: it lowers
// a trained network into a sequence of hardware operations, each of which
// runs over a [N, ...] activation block (a single sample is a batch of one).
//
//   - Conv2D/Dense (+ following BatchNorm, Lock, ReLU) fuse into one MAC
//     operation: batch-norm parameters fold into the weights and bias
//     (standard inference-time folding), the lock rides the accumulator
//     key bits and ReLU runs on the activation unit.
//   - Pooling, flatten and a standalone batch-norm run on the vector unit.
//   - Residual blocks compile recursively; the join is an elementwise add
//     on the vector unit, and the block's post Lock+ReLU becomes a
//     vector-unit lock (the same XOR-negation gates, placed on the
//     activation unit's input bus).
//
// Only the MAC step branches on the backend (batch.go): the float GEMM over
// int8 codes with the lock as a sign-mask epilogue, or the simulated MMU
// when the run is on it (PredictSample, GateLevel, Systolic).
//
// Ops are stateful: each owns its output buffer, drawn from the
// accelerator's Workspace under a key assigned at compile time (unique
// within a plan, so no two live ops ever share a buffer), plus cached
// quantized weights and column assignments. Input scratch that is dead once
// its op returns (the column matrix, the image codes, the dense input
// codes) lives under accelerator-wide keys: a device runs one inference at
// a time. After the first batch a steady-state inference reuses every
// buffer, which is what makes the per-bit-trial queries of the attack
// experiments cheap.
//
// This is what lets the full ResNet-18 of Fig. 3/Fig. 5 execute on the
// simulated device, not just the sequential CNNs of Table I.

// planOp is one compiled accelerator operation: run executes it over a
// [N, ...] activation block and returns the op's output block.
type planOp interface {
	run(a *Accelerator, act *tensor.Tensor) (*tensor.Tensor, error)
	opName() string
}

// Workspace keys of the dead-after-return input scratch, shared by every op
// of every plan on a device.
const (
	colKey = "conv.col" // the gathered column matrix, quantized in place
	imgKey = "conv.img" // stride-1 shortcut: the image's codes
	inKey  = "dense.in" // the dense input's codes
)

// planCompiler assigns workspace keys while lowering; prefix keeps keys
// from different compilations on one accelerator distinct.
type planCompiler struct {
	prefix string
	n      int
}

func (c *planCompiler) key(kind string) string {
	c.n++
	return c.prefix + kind + "#" + strconv.Itoa(c.n)
}

// compile lowers a network into accelerator operations.
func compile(net *nn.Network) ([]planOp, error) {
	return (&planCompiler{}).compile(net)
}

func (c *planCompiler) compile(net *nn.Network) ([]planOp, error) {
	var ops []planOp
	layers := net.Layers
	for i := 0; i < len(layers); i++ {
		switch l := layers[i].(type) {
		case *nn.Conv2D, *nn.Dense:
			op, consumed, err := c.fuseMAC(layers, i)
			if err != nil {
				return nil, err
			}
			ops = append(ops, op)
			i += consumed
		case *nn.MaxPool, *nn.AvgPool, *nn.GlobalAvgPool, *nn.Flatten:
			ops = append(ops, &vectorOp{layer: cloneVectorLayer(layers[i])})
		case *nn.ReLU:
			ops = append(ops, &lockReluOp{relu: true, outKey: c.key("relu")})
		case *nn.Lock:
			relu := false
			if i+1 < len(layers) {
				if _, ok := layers[i+1].(*nn.ReLU); ok {
					relu = true
					i++
				}
			}
			ops = append(ops, &lockReluOp{
				lockID: l.ID, neurons: l.Neurons(), relu: relu, outKey: c.key("lockrelu"),
			})
		case *nn.BatchNorm2D:
			// Standalone BN (not behind a conv): eval-mode affine on the
			// vector unit.
			ops = append(ops, &vectorOp{layer: cloneBatchNorm(l)})
		case *nn.Residual:
			body, err := c.compile(l.Body)
			if err != nil {
				return nil, err
			}
			var skip []planOp
			if l.Skip != nil {
				if skip, err = c.compile(l.Skip); err != nil {
					return nil, err
				}
			}
			post, err := c.compile(l.Post)
			if err != nil {
				return nil, err
			}
			ops = append(ops, &residualOp{body: body, skip: skip, post: post, sumKey: c.key("ressum")})
		default:
			return nil, fmt.Errorf("tpu: layer %s is not supported on the accelerator datapath", layers[i].Name())
		}
	}
	return ops, nil
}

// fuseMAC fuses a Conv2D or Dense at index i with an optional following
// BatchNorm2D, Lock and ReLU, returning the fused op and how many extra
// layers were consumed.
func (c *planCompiler) fuseMAC(layers []nn.Layer, i int) (planOp, int, error) {
	consumed := 0
	next := func() nn.Layer {
		if i+consumed+1 < len(layers) {
			return layers[i+consumed+1]
		}
		return nil
	}

	var bn *nn.BatchNorm2D
	if b, ok := next().(*nn.BatchNorm2D); ok {
		bn = b
		consumed++
	}
	var lockID string
	if l, ok := next().(*nn.Lock); ok {
		lockID = l.ID
		consumed++
	}
	relu := false
	if _, ok := next().(*nn.ReLU); ok {
		relu = true
		consumed++
	}

	switch mac := layers[i].(type) {
	case *nn.Conv2D:
		w, b := foldBN(mac.W.Value, mac.B.Value, mac.OutC, bn)
		return &convOp{geom: mac.Geom, macCore: macCore{
			w: w, b: b, m: mac.OutC, k: mac.Geom.ColRows(),
			lockID: lockID, relu: relu, ownsWB: bn != nil,
			outKey: c.key("conv.out"), wKey: c.key("conv.wcodes"),
		}}, consumed, nil
	case *nn.Dense:
		if bn != nil {
			return nil, 0, fmt.Errorf("tpu: BatchNorm2D after Dense is not supported")
		}
		return &denseOp{macCore: macCore{
			w: mac.W.Value, b: mac.B.Value, m: mac.Out, k: mac.In,
			lockID: lockID, relu: relu,
			outKey: c.key("dense.out"), wKey: c.key("dense.wcodes"),
		}}, consumed, nil
	default:
		return nil, 0, fmt.Errorf("tpu: fuseMAC on non-MAC layer %s", layers[i].Name())
	}
}

// cloneVectorLayer gives a compiled plan its own instance of a
// parameter-free vector-unit layer. The nn layers own reusable forward
// scratch, so sharing the model's instances across plans would race when
// several accelerators — the serving layer's shards — execute one model
// concurrently. These layers hold no trainable state, so a fresh instance
// is semantically identical.
func cloneVectorLayer(l nn.Layer) nn.Layer {
	switch v := l.(type) {
	case *nn.MaxPool:
		return nn.NewMaxPool(v.Geom)
	case *nn.AvgPool:
		return nn.NewAvgPool(v.Geom)
	case *nn.GlobalAvgPool:
		return nn.NewGlobalAvgPool()
	case *nn.Flatten:
		return nn.NewFlatten()
	}
	panic("tpu: cloneVectorLayer on unsupported layer " + l.Name())
}

// cloneBatchNorm gives a plan its own standalone batch-norm instance:
// scratch is per-plan, while the parameters and running statistics stay
// shared views of the model's tensors — eval-mode forward only reads them.
func cloneBatchNorm(bn *nn.BatchNorm2D) *nn.BatchNorm2D {
	return &nn.BatchNorm2D{
		C: bn.C, Eps: bn.Eps, Momentum: bn.Momentum,
		Gamma: bn.Gamma, Beta: bn.Beta,
		RunMean: bn.RunMean, RunVar: bn.RunVar,
	}
}

// foldBN folds eval-mode batch-norm into convolution weights and bias:
// scale_c = γ_c/√(var_c+ε);  W'_c = scale_c·W_c;  b'_c = scale_c·(b_c−μ_c)+β_c.
// With bn == nil the original tensors are returned unchanged.
func foldBN(w, b *tensor.Tensor, outC int, bn *nn.BatchNorm2D) (*tensor.Tensor, *tensor.Tensor) {
	if bn == nil {
		return w, b
	}
	k := w.Len() / outC
	fw := w.Clone()
	fb := b.Clone()
	for c := 0; c < outC; c++ {
		std := sqrtf(bn.RunVar.Data[c] + bn.Eps)
		scale := bn.Gamma.Value.Data[c] / std
		row := fw.Data[c*k : (c+1)*k]
		for j := range row {
			row[j] *= scale
		}
		fb.Data[c] = scale*(b.Data[c]-bn.RunMean.Data[c]) + bn.Beta.Value.Data[c]
	}
	return fw, fb
}

// --- ops ---------------------------------------------------------------------

// convOp is a fused convolution (+BN) (+lock) (+ReLU): per sample, W[OutC,
// C·KH·KW] times the sample's column matrix [C·KH·KW, OutH·OutW].
type convOp struct {
	geom tensor.ConvGeom
	macCore
}

func (o *convOp) opName() string { return "conv" }

func (o *convOp) run(a *Accelerator, act *tensor.Tensor) (*tensor.Tensor, error) {
	g := o.geom
	if len(act.Shape) != 4 || act.Shape[1] != g.InC || act.Shape[2] != g.InH || act.Shape[3] != g.InW {
		//hpnn:allow(noalloc) cold error path
		return nil, fmt.Errorf("tpu: conv input %v does not match geometry %+v", act.Shape, g)
	}
	n, pix := act.Shape[0], g.OutH()*g.OutW()
	o.prepare(a, o.m*pix)
	out := a.ws.Get(o.outKey, n, o.m, g.OutH(), g.OutW())
	col := a.ws.Get(colKey, o.k, pix)

	// With stride 1 every input pixel lands in at least one receptive
	// field (the gathered offsets ky−Pad … InH+Pad−KH+ky−Pad cover
	// 0 … InH−1 contiguously, and likewise for width), so the column
	// matrix contains exactly the image's values plus padding zeros and
	// MaxAbs(col) == MaxAbs(image). That lets the GEMM quantize the C·H·W
	// image once and gather its codes — identical scale, identical
	// per-value rounding, ~KH·KW× less rounding work. Strided geometries
	// can skip pixels, so they gather first and quantize the columns in
	// place. The MMU always does the latter, as the hardware would, so the
	// reference shares nothing with the shortcut.
	var img *tensor.Tensor
	if g.Stride == 1 && !a.onMMU {
		img = a.ws.Get(imgKey, g.InLen())
	}
	in, per := g.InLen(), o.m*pix
	for i := 0; i < n; i++ {
		// Quantization is per sample: the scale tracks each sample's
		// dynamic range whatever batch it arrives in.
		src := act.Data[i*in : (i+1)*in]
		var scale float64
		if img != nil {
			scale = quantizeSlice(img.Data, src, a.bits)
			tensor.Im2ColSlice(col.Data, img.Data, g)
		} else {
			tensor.Im2ColSlice(col.Data, src, g)
			scale = quantizeSlice(col.Data, col.Data, a.bits)
		}
		seg := out.Data[i*per : (i+1)*per]
		if !a.onMMU {
			tensor.MatMulSliceInto(seg, o.wCodes.Data, col.Data, o.m, o.k, pix)
		}
		o.finish(a, seg, col.Data, pix, scale)
	}
	return out, nil
}

// denseOp is a fused fully-connected (+lock) (+ReLU): W[Out, In] times each
// sample's input codes.
type denseOp struct {
	macCore
	scales []float64 // per-sample input scales
}

func (o *denseOp) opName() string { return "dense" }

func (o *denseOp) run(a *Accelerator, act *tensor.Tensor) (*tensor.Tensor, error) {
	if len(act.Shape) < 2 || act.Len() != act.Shape[0]*o.k {
		//hpnn:allow(noalloc) cold error path
		return nil, fmt.Errorf("tpu: dense input %v does not match layer width %d", act.Shape, o.k)
	}
	n := act.Shape[0]
	o.prepare(a, o.m)
	// Per-sample quantization, then on the GEMM ONE product over the whole
	// micro-batch: the sample rows' codes times the transposed weight
	// codes, with the exact sums landing in the output block.
	x := a.ws.Get(inKey, n, o.k)
	o.scales = tensor.EnsureFloats(o.scales, n)
	for i := 0; i < n; i++ {
		o.scales[i] = quantizeSlice(x.Data[i*o.k:(i+1)*o.k], act.Data[i*o.k:(i+1)*o.k], a.bits)
	}
	out := a.ws.Get(o.outKey, n, o.m)
	if !a.onMMU {
		tensor.MatMulNTSliceInto(out.Data, x.Data, o.wCodes.Data, n, o.k, o.m)
	}
	for i := 0; i < n; i++ {
		o.finish(a, out.Data[i*o.m:(i+1)*o.m], x.Data[i*o.k:(i+1)*o.k], 1, o.scales[i])
	}
	return out, nil
}

// vectorOp runs a pooling/reshape layer, or a standalone eval-mode
// batch-norm (rare: only when a BN is not preceded by a conv), on the vector
// unit. The nn layers natively handle the leading batch dimension with
// per-sample workers over disjoint regions, so each sample's result is
// bitwise-independent of its batch; each layer owns its own reusable
// scratch.
type vectorOp struct{ layer nn.Layer }

func (o *vectorOp) opName() string { return "vector:" + o.layer.Name() }

func (o *vectorOp) run(a *Accelerator, act *tensor.Tensor) (*tensor.Tensor, error) {
	return o.layer.Forward(act, false), nil
}

// lockReluOp applies a standalone lock (XOR-negation on the vector unit's
// input bus) and/or ReLU — used after residual joins and for bare ReLUs.
type lockReluOp struct {
	lockID  string
	neurons int
	relu    bool

	outKey  string
	cols    []int
	colsSet bool
	mask    lockMask
}

func (o *lockReluOp) opName() string { return "lockrelu" }

func (o *lockReluOp) run(a *Accelerator, act *tensor.Tensor) (*tensor.Tensor, error) {
	out := a.ws.Get(o.outKey, act.Shape...)
	copy(out.Data, act.Data)
	if o.lockID != "" {
		if per := act.Len() / maxInt(act.Shape[0], 1); per != o.neurons {
			//hpnn:allow(noalloc) cold error path
			return nil, fmt.Errorf("tpu: lock %s sized %d applied to %d activations per sample", o.lockID, o.neurons, per)
		}
		if !o.colsSet {
			o.cols = a.low.MACColumns(o.lockID, o.neurons)
			o.colsSet = true
		}
		// A nil assignment means the scheme places no lock on this bus
		// (weight-space schemes protect parameters, not activations). On
		// the MMU each key bit comes from the device's column probe, on the
		// GEMM from the op's cached sign mask.
		if o.cols != nil && !a.onMMU {
			o.mask.refresh(a.mmu, o.cols)
		}
		for j, c := range o.cols {
			if a.onMMU && a.mmu.columnBit(c) == 0 || !a.onMMU && o.mask.neg[j] == 0 {
				continue
			}
			for i := j; i < len(out.Data); i += o.neurons {
				out.Data[i] = -out.Data[i]
			}
		}
	}
	if o.relu {
		for j, v := range out.Data {
			if v < 0 {
				out.Data[j] = 0
			}
		}
	}
	return out, nil
}

// residualOp executes a compiled residual block: body and skip paths, an
// elementwise join on the vector unit, then the post ops.
type residualOp struct {
	body, skip, post []planOp
	sumKey           string
}

func (o *residualOp) opName() string { return "residual" }

func (o *residualOp) run(a *Accelerator, act *tensor.Tensor) (*tensor.Tensor, error) {
	body, err := runOps(a, o.body, act)
	if err != nil {
		return nil, err
	}
	skip := act
	if o.skip != nil {
		if skip, err = runOps(a, o.skip, act); err != nil {
			return nil, err
		}
	}
	if body.Len() != skip.Len() {
		//hpnn:allow(noalloc) cold error path
		return nil, fmt.Errorf("tpu: residual join mismatch %v vs %v", body.Shape, skip.Shape)
	}
	sum := a.ws.Get(o.sumKey, body.Shape...)
	for i := range sum.Data {
		sum.Data[i] = body.Data[i] + skip.Data[i]
	}
	return runOps(a, o.post, sum)
}

func runOps(a *Accelerator, ops []planOp, act *tensor.Tensor) (*tensor.Tensor, error) {
	var err error
	for _, op := range ops {
		if act, err = op.run(a, act); err != nil {
			return nil, fmt.Errorf("%s: %w", op.opName(), err) //hpnn:allow(noalloc) cold error path
		}
	}
	return act, nil
}

// finishMACSlice applies the activation unit (ReLU + requantize) or plain
// dequantization to one sample's accumulators, writing dst and reusing q8
// as the requantization buffer; the possibly regrown buffer is returned for
// the op to keep.
func finishMACSlice(dst []float64, acc []int32, accScale float64, relu bool, q8 []int8) []int8 {
	if relu {
		q, scale := ReLUQuantizeInto(q8, acc, accScale)
		for i, v := range q {
			dst[i] = float64(v) * scale
		}
		return q
	}
	for i, v := range acc {
		dst[i] = float64(v) * accScale
	}
	return q8
}

// compileModel lowers m for execution on a. Workspace keys get a prefix
// unique to this compilation, so plans for different models on the same
// device never alias buffers.
func compileModel(a *Accelerator, m *core.Model) ([]planOp, error) {
	c := &planCompiler{prefix: fmt.Sprintf("m%d/", len(a.plans))}
	return c.compile(m.Net)
}
