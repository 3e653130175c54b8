package tpu

import (
	"fmt"
	"strconv"

	"hpnn/internal/core"
	"hpnn/internal/nn"
	"hpnn/internal/tensor"
)

// This file is the accelerator's model compiler: it lowers a trained
// network into a sequence of hardware operations before execution.
//
//   - Conv2D/Dense (+ following BatchNorm, Lock, ReLU) fuse into one MAC
//     operation: batch-norm parameters fold into the weights and bias
//     (standard inference-time folding), the lock rides the accumulator
//     key bits and ReLU runs on the activation unit.
//   - Pooling/flatten run on the vector unit.
//   - Residual blocks compile recursively; the join is an elementwise add
//     on the vector unit, and the block's post Lock+ReLU becomes a
//     vector-unit lock (the same XOR-negation gates, placed on the
//     activation unit's input bus).
//
// Ops are stateful: each owns its activation scratch, drawn from the
// accelerator's Workspace under a key assigned at compile time (unique
// within a plan, so no two live ops ever share a buffer), plus cached
// quantized weights and column assignments. After the first sample a
// steady-state inference reuses every buffer, which is what makes the
// per-bit-trial queries of the attack experiments cheap.
//
// This is what lets the full ResNet-18 of Fig. 3/Fig. 5 execute on the
// simulated device, not just the sequential CNNs of Table I.

// planOp is one compiled accelerator operation. apply is the golden
// per-sample path through the simulated MMU; applyBatch is the production
// batched tier (batch.go), which executes the same plan over a [N, ...]
// activation block — its MACs on the float GEMM over int8 codes — and must
// match apply bitwise, sample for sample.
type planOp interface {
	apply(a *Accelerator, act *tensor.Tensor) (*tensor.Tensor, error)
	applyBatch(a *Accelerator, act *tensor.Tensor) (*tensor.Tensor, error)
	opName() string
}

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
			ops = append(ops, &lockReluOp{relu: true, outKey: c.key("relu"), bOutKey: c.key("relu.b")})
		case *nn.Lock:
			relu := false
			if i+1 < len(layers) {
				if _, ok := layers[i+1].(*nn.ReLU); ok {
					relu = true
					i++
				}
			}
			ops = append(ops, &lockReluOp{
				lockID: l.ID, neurons: l.Neurons(), relu: relu,
				outKey: c.key("lockrelu"), bOutKey: c.key("lockrelu.b"),
			})
		case *nn.BatchNorm2D:
			// Standalone BN (not behind a conv): eval-mode affine.
			ops = append(ops, &affineOp{bn: cloneBatchNorm(l)})
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
			ops = append(ops, &residualOp{body: body, skip: skip, post: post, sumKey: c.key("ressum"), bSumKey: c.key("ressum.b")})
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
	var lockN int
	if l, ok := next().(*nn.Lock); ok {
		lockID = l.ID
		lockN = l.Neurons()
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
		return &convOp{
			geom: mac.Geom, outC: mac.OutC,
			w: w, b: b,
			lockID: lockID, lockN: lockN, relu: relu,
			colKey: c.key("conv.col"), outKey: c.key("conv.out"),
			bColKey: c.key("conv.bcol"), bOutKey: c.key("conv.bout"),
			bImgKey: c.key("conv.bimg"), wKey: c.key("conv.wcodes"),
		}, consumed, nil
	case *nn.Dense:
		if bn != nil {
			return nil, 0, fmt.Errorf("tpu: BatchNorm2D after Dense is not supported")
		}
		return &denseOp{
			in: mac.In, out: mac.Out,
			w: mac.W.Value, b: mac.B.Value,
			lockID: lockID, lockN: lockN, relu: relu,
			outKey: c.key("dense.out"), bOutKey: c.key("dense.bout"),
			bInKey: c.key("dense.bin"), wKey: c.key("dense.wcodes"),
		}, consumed, nil
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

// convOp is a fused convolution (+BN) (+lock) (+ReLU) on the MMU.
type convOp struct {
	geom   tensor.ConvGeom
	outC   int
	w, b   *tensor.Tensor
	lockID string
	lockN  int
	relu   bool

	colKey, outKey string
	qW             *QTensor // weights quantize once; cached on first apply
	qIn            *QTensor
	bias           []int32
	cols           []int
	colsSet        bool // scheme lowering answered (nil = no in-datapath lock)
	q8             []int8
	acc            []int32

	// Batched-tier state (batch.go). Separate workspace keys from the
	// per-sample path so either entry point can be warmed and sealed
	// independently of the other.
	bColKey, bOutKey string
	bImgKey          string         // stride-1 fast path: the image's codes
	wKey             string         // the weight codes widened to float64
	wCodes           *tensor.Tensor // workspace buffer under wKey
	bAcc             []int32
	mask             lockMask
}

func (o *convOp) opName() string { return "conv" }

func (o *convOp) apply(a *Accelerator, act *tensor.Tensor) (*tensor.Tensor, error) {
	g := o.geom
	if len(act.Shape) != 3 || act.Shape[0] != g.InC || act.Shape[1] != g.InH || act.Shape[2] != g.InW {
		return nil, fmt.Errorf("tpu: conv input %v does not match geometry %+v", act.Shape, g)
	}
	pix := g.OutH() * g.OutW()
	col := a.ws.Get(o.colKey, g.ColRows(), pix)
	tensor.Im2ColInto(col, act, g)
	o.qIn = QuantizeToInto(o.qIn, col, a.bits)
	if o.qW == nil {
		o.qW = a.quantize(o.w)
	}
	accScale := o.qIn.Scale * o.qW.Scale
	o.bias = QuantizeBiasInto(o.bias, o.b, accScale)

	if o.lockID != "" && !o.colsSet {
		o.cols = a.low.MACColumns(o.lockID, o.outC*pix)
		o.colsSet = true
	}
	o.acc = a.mmu.MatMulLockedInto(o.acc, o.qW.Data, o.outC, g.InC*g.KH*g.KW, o.qIn.Data, pix, o.bias, o.cols)
	out := a.ws.Get(o.outKey, o.outC, g.OutH(), g.OutW())
	o.q8 = finishMACInto(out, o.acc, accScale, o.relu, o.q8)
	return out, nil
}

// denseOp is a fused fully-connected (+lock) (+ReLU) on the MMU.
type denseOp struct {
	in, out int
	w, b    *tensor.Tensor
	lockID  string
	lockN   int
	relu    bool

	outKey  string
	qW      *QTensor
	qIn     *QTensor
	bias    []int32
	cols    []int
	colsSet bool
	q8      []int8
	acc     []int32

	// Batched-tier state (batch.go).
	bOutKey string
	bInKey  string         // the batch's input codes
	wKey    string         // the weight codes widened to float64
	wCodes  *tensor.Tensor // workspace buffer under wKey
	bAcc    []int32
	bScales []float64
	mask    lockMask
}

func (o *denseOp) opName() string { return "dense" }

func (o *denseOp) apply(a *Accelerator, act *tensor.Tensor) (*tensor.Tensor, error) {
	if act.Len() != o.in {
		return nil, fmt.Errorf("tpu: dense input %d does not match layer width %d", act.Len(), o.in)
	}
	o.qIn = QuantizeToInto(o.qIn, act, a.bits)
	if o.qW == nil {
		o.qW = a.quantize(o.w)
	}
	accScale := o.qIn.Scale * o.qW.Scale
	o.bias = QuantizeBiasInto(o.bias, o.b, accScale)

	if o.lockID != "" && !o.colsSet {
		o.cols = a.low.MACColumns(o.lockID, o.out)
		o.colsSet = true
	}
	o.acc = a.mmu.MatMulLockedInto(o.acc, o.qW.Data, o.out, o.in, o.qIn.Data, 1, o.bias, o.cols)
	out := a.ws.Get(o.outKey, o.out)
	o.q8 = finishMACInto(out, o.acc, accScale, o.relu, o.q8)
	return out, nil
}

// vectorOp runs a stateless pooling/reshape layer on the vector unit. The
// batched/unbatched tensor headers are cached views over existing data, and
// the nn layer underneath owns its own reusable scratch.
type vectorOp struct {
	layer              nn.Layer
	shape              []int
	batched, unbatched tensor.Tensor
}

func (o *vectorOp) opName() string { return "vector:" + o.layer.Name() }

func (o *vectorOp) apply(a *Accelerator, act *tensor.Tensor) (*tensor.Tensor, error) {
	o.shape = append(o.shape[:0], 1)
	o.shape = append(o.shape, act.Shape...)
	batched := tensor.ViewInto(&o.batched, act.Data, o.shape...)
	out := o.layer.Forward(batched, false)
	return tensor.ViewInto(&o.unbatched, out.Data, out.Shape[1:]...), nil
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

	// Batched-tier state (batch.go).
	bOutKey string
	mask    lockMask
}

func (o *lockReluOp) opName() string { return "lockrelu" }

func (o *lockReluOp) apply(a *Accelerator, act *tensor.Tensor) (*tensor.Tensor, error) {
	out := a.ws.Get(o.outKey, act.Shape...)
	copy(out.Data, act.Data)
	if o.lockID != "" {
		if act.Len() != o.neurons {
			return nil, fmt.Errorf("tpu: lock %s sized %d applied to %d activations", o.lockID, o.neurons, act.Len())
		}
		if !o.colsSet {
			o.cols = a.low.MACColumns(o.lockID, o.neurons)
			o.colsSet = true
		}
		// A nil assignment means the scheme places no lock on this bus
		// (weight-space schemes protect parameters, not activations).
		if o.cols != nil {
			for j := range out.Data {
				if a.mmu.columnBit(o.cols[j]) == 1 {
					out.Data[j] = -out.Data[j]
				}
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

// affineOp is a standalone eval-mode batch-norm (rare: only when a BN is
// not preceded by a conv).
type affineOp struct {
	bn                 *nn.BatchNorm2D
	shape              []int
	batched, unbatched tensor.Tensor
}

func (o *affineOp) opName() string { return "affine" }

func (o *affineOp) apply(a *Accelerator, act *tensor.Tensor) (*tensor.Tensor, error) {
	o.shape = append(o.shape[:0], 1)
	o.shape = append(o.shape, act.Shape...)
	batched := tensor.ViewInto(&o.batched, act.Data, o.shape...)
	out := o.bn.Forward(batched, false)
	return tensor.ViewInto(&o.unbatched, out.Data, out.Shape[1:]...), nil
}

// residualOp executes a compiled residual block: body and skip paths, an
// elementwise join on the vector unit, then the post ops.
type residualOp struct {
	body, skip, post []planOp
	sumKey           string
	bSumKey          string
}

func (o *residualOp) opName() string { return "residual" }

func (o *residualOp) apply(a *Accelerator, act *tensor.Tensor) (*tensor.Tensor, error) {
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
		if act, err = op.apply(a, act); err != nil {
			return nil, fmt.Errorf("%s: %w", op.opName(), err) //hpnn:allow(noalloc) cold error path
		}
	}
	return act, nil
}

// finishMACInto applies the activation unit (ReLU + requantize) or plain
// dequantization into out, reusing q8 as the requantization buffer; the
// possibly regrown buffer is returned for the op to keep.
func finishMACInto(out *tensor.Tensor, acc []int32, accScale float64, relu bool, q8 []int8) []int8 {
	return finishMACSlice(out.Data, acc, accScale, relu, q8)
}

// finishMACSlice is the raw-slice core of finishMACInto, shared with the
// batched tier, which finishes each sample into its segment of the batch
// output block. Both paths run the exact same float operations, which is
// part of the bitwise golden-reference contract.
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
