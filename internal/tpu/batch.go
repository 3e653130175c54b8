package tpu

import (
	"fmt"

	"hpnn/internal/core"
	"hpnn/internal/tensor"
)

// This file is the production int8 execution tier: PredictBatch runs a
// micro-batch [N, C, H, W] through a compiled plan on the packed float64
// GEMM (tensor/gemm.go, the engine training uses) instead of the simulated
// MMU, amortizing quantization, im2col and lock lowering across the batch.
// The GEMM's operands are the datapath's int8 codes held as float64.
//
// The tier is differentially pinned to the simulator: for every registered
// lock scheme, every sample of a batch must produce bit-for-bit the same
// activations — and therefore the same predictions and hardware counters —
// as the golden per-sample path (plan.go → mmu.go). The equality is not
// approximate. It rests on three facts:
//
//   - the float sum is the exact integer sum: every code is in
//     [−127, 127], so every product is at most 127² and |Σ| ≤ k·127² < 2⁵³,
//     and float64 adds integers that small without rounding, in any order;
//     int32(int64(Σ)) then wraps it to 32 bits, and int32 addition wraps
//     identically in any association, so adding the bias gives the
//     accumulator chain's sequential preload-and-add for any k;
//   - the HPNN lock factor L ∈ {+1, −1} applied by the key-conditioned
//     accumulator is a post-sum negation: −(b+Σ) under wrapping arithmetic
//     equals the branchless two's-complement flip (s ^ −1) − (−1), so the
//     lock folds into the GEMM epilogue as a per-output sign mask;
//   - activation quantization is per sample in both paths (quantizeSlice is
//     operation-for-operation QuantizeToInto, widening each int8 code), so
//     scales — and thus every downstream float — agree bitwise.
//
// Key bits are cached as sign masks per op. Revocation is the only runtime
// event that changes a ColumnBit answer, so each op probes the device's
// revocation state once per batch (lockMask.refresh) instead of re-asking
// for every output of every sample — the cache can never serve stale lock
// state across a license pull.
//
// Diagnostic device modes (GateLevel, Systolic) intentionally bypass this
// tier: PredictBatch falls back to the per-sample simulator so those modes
// keep observing every gate evaluation.

// lockMask caches the per-output sign masks an op derives from the sealed
// device's key bits: neg[j] is −1 where the key bit reads 1 (negating
// accumulator) and 0 elsewhere, so the epilogue flip is branch-free:
// (s ^ neg) − neg. locked counts the negating outputs, feeding the same
// LockedOutputs accounting as the golden path.
type lockMask struct {
	built   bool
	revoked bool // device revocation state the mask was built under
	neg     []int32
	locked  uint64
}

// refresh rebuilds the mask if it has never been built or the device's
// revocation state changed since it was. One Revoked probe per op per batch
// keeps the cache honest; everything else is cached forever (key bits are
// sealed in hardware and cannot change).
//
//hpnn:noalloc
func (lm *lockMask) refresh(m *MMU, cols []int) {
	rev := m.deviceRevoked()
	if lm.built && lm.revoked == rev && len(lm.neg) == len(cols) {
		return
	}
	lm.neg = tensor.EnsureInt32s(lm.neg, len(cols))
	lm.locked = 0
	for i, c := range cols {
		if m.columnBit(c) == 1 {
			lm.neg[i] = -1
			lm.locked++
		} else {
			lm.neg[i] = 0
		}
	}
	lm.built = true
	lm.revoked = rev
}

// wipe zeroes the cached key-bit sign masks and marks the mask unbuilt.
// The entries are overwritten before the slice is dropped so that every
// alias of the backing array reads zeros too — Release calls this when a
// tenant's plan is evicted, and the whole point is that no key-derived
// residue survives in reusable accelerator memory.
func (lm *lockMask) wipe() {
	for i := range lm.neg {
		lm.neg[i] = 0
	}
	lm.neg = nil
	lm.locked = 0
	lm.built = false
	lm.revoked = false
}

// --- batched op implementations ---------------------------------------------

// weightCodes returns the op's int8 weight codes widened to float64, the
// GEMM operand of the batched tier. They are widened once per plan into the
// accelerator's workspace under the op's compile-time key, so
// WorkspaceBytes (and the serving registry's memory budget) counts them and
// Release frees them.
func (a *Accelerator) weightCodes(codes *tensor.Tensor, key string, q *QTensor) *tensor.Tensor {
	if codes == nil {
		codes = a.ws.Get(key, len(q.Data))
		for i, v := range q.Data {
			codes.Data[i] = float64(v)
		}
	}
	return codes
}

func (o *convOp) applyBatch(a *Accelerator, act *tensor.Tensor) (*tensor.Tensor, error) {
	g := o.geom
	if len(act.Shape) != 4 || act.Shape[1] != g.InC || act.Shape[2] != g.InH || act.Shape[3] != g.InW {
		//hpnn:allow(noalloc) cold error path
		return nil, fmt.Errorf("tpu: batched conv input %v does not match geometry %+v", act.Shape, g)
	}
	n := act.Shape[0]
	pix := g.OutH() * g.OutW()
	kDim := g.ColRows()
	if o.qW == nil {
		o.qW = a.quantize(o.w)
	}
	o.wCodes = a.weightCodes(o.wCodes, o.wKey, o.qW)
	if o.lockID != "" && !o.colsSet {
		o.cols = a.low.MACColumns(o.lockID, o.outC*pix)
		o.colsSet = true
	}
	locked := uint64(0)
	if o.cols != nil {
		o.mask.refresh(a.mmu, o.cols)
		locked = o.mask.locked
	}

	// With stride 1 every input pixel lands in at least one receptive
	// field (the gathered offsets ky−Pad … InH+Pad−KH+ky−Pad cover
	// 0 … InH−1 contiguously, and likewise for width), so the column
	// matrix contains exactly the image's values plus padding zeros and
	// MaxAbs(col) == MaxAbs(image). That lets the fast path quantize the
	// C·H·W image once and gather its codes — identical scale, identical
	// per-value rounding, ~KH·KW× less rounding work — instead of
	// quantizing the C·KH·KW·OutH·OutW column matrix like the golden path
	// does. Strided geometries can skip pixels, so they gather first and
	// quantize the columns in place.
	col := a.ws.Get(o.bColKey, kDim, pix)
	var img *tensor.Tensor
	if g.Stride == 1 {
		img = a.ws.Get(o.bImgKey, g.InLen())
	}
	out := a.ws.Get(o.bOutKey, n, o.outC, g.OutH(), g.OutW())
	o.bAcc = tensor.EnsureInt32s(o.bAcc, o.outC*pix)
	sampleIn := g.InLen()
	sampleOut := o.outC * pix
	for i := 0; i < n; i++ {
		// Quantization is per sample — the scale tracks each sample's
		// dynamic range exactly as the golden path's does, which is what
		// keeps the two paths bitwise-equal.
		src := act.Data[i*sampleIn : (i+1)*sampleIn]
		var scale float64
		if img != nil {
			scale = quantizeSlice(img.Data, src, a.bits)
			tensor.Im2ColSlice(col.Data, img.Data, g)
		} else {
			tensor.Im2ColSlice(col.Data, src, g)
			scale = quantizeSlice(col.Data, col.Data, a.bits)
		}
		accScale := scale * o.qW.Scale
		o.bias = QuantizeBiasInto(o.bias, o.b, accScale)
		// The exact sums land in the sample's output segment; the epilogue
		// reads them into the int32 accumulators before finishMACSlice
		// overwrites the segment with the activations.
		seg := out.Data[i*sampleOut : (i+1)*sampleOut]
		tensor.MatMulSliceInto(seg, o.wCodes.Data, col.Data, o.outC, kDim, pix)
		for oc := 0; oc < o.outC; oc++ {
			row := o.bAcc[oc*pix : (oc+1)*pix]
			sums := seg[oc*pix : (oc+1)*pix]
			b := o.bias[oc]
			if o.cols == nil {
				for j, v := range sums {
					row[j] = int32(int64(v)) + b
				}
			} else {
				mrow := o.mask.neg[oc*pix : (oc+1)*pix]
				for j, v := range sums {
					s := int32(int64(v)) + b
					m := mrow[j]
					row[j] = (s ^ m) - m
				}
			}
		}
		a.mmu.accountMatMul(o.outC, kDim, pix, 0, locked)
		o.q8 = finishMACSlice(seg, o.bAcc, accScale, o.relu, o.q8)
	}
	return out, nil
}

func (o *denseOp) applyBatch(a *Accelerator, act *tensor.Tensor) (*tensor.Tensor, error) {
	if len(act.Shape) < 2 {
		//hpnn:allow(noalloc) cold error path
		return nil, fmt.Errorf("tpu: batched dense input %v has no batch dimension", act.Shape)
	}
	n := act.Shape[0]
	if act.Len() != n*o.in {
		//hpnn:allow(noalloc) cold error path
		return nil, fmt.Errorf("tpu: batched dense input %v does not match layer width %d", act.Shape, o.in)
	}
	if o.qW == nil {
		o.qW = a.quantize(o.w)
	}
	o.wCodes = a.weightCodes(o.wCodes, o.wKey, o.qW)
	if o.lockID != "" && !o.colsSet {
		o.cols = a.low.MACColumns(o.lockID, o.out)
		o.colsSet = true
	}
	locked := uint64(0)
	if o.cols != nil {
		o.mask.refresh(a.mmu, o.cols)
		locked = o.mask.locked
	}

	// Per-sample quantization, then ONE GEMM over the whole micro-batch:
	// the sample rows' codes times the transposed weight codes, with the
	// exact sums landing in the output block.
	x := a.ws.Get(o.bInKey, n, o.in)
	o.bScales = tensor.EnsureFloats(o.bScales, n)
	for i := 0; i < n; i++ {
		o.bScales[i] = quantizeSlice(x.Data[i*o.in:(i+1)*o.in], act.Data[i*o.in:(i+1)*o.in], a.bits)
	}
	out := a.ws.Get(o.bOutKey, n, o.out)
	tensor.MatMulNTSliceInto(out.Data, x.Data, o.wCodes.Data, n, o.in, o.out)

	o.bAcc = tensor.EnsureInt32s(o.bAcc, o.out)
	for i := 0; i < n; i++ {
		accScale := o.bScales[i] * o.qW.Scale
		o.bias = QuantizeBiasInto(o.bias, o.b, accScale)
		seg := out.Data[i*o.out : (i+1)*o.out]
		if o.cols == nil {
			for j, v := range seg {
				o.bAcc[j] = int32(int64(v)) + o.bias[j]
			}
		} else {
			for j, v := range seg {
				s := int32(int64(v)) + o.bias[j]
				m := o.mask.neg[j]
				o.bAcc[j] = (s ^ m) - m
			}
		}
		a.mmu.accountMatMul(o.out, o.in, 1, 0, locked)
		o.q8 = finishMACSlice(seg, o.bAcc, accScale, o.relu, o.q8)
	}
	return out, nil
}

// vectorOp and affineOp: the nn vector-unit layers natively handle a
// leading batch dimension with per-sample workers over disjoint regions,
// so each sample's result is bitwise-independent of its batch — the batched
// tier passes the block straight through.
func (o *vectorOp) applyBatch(a *Accelerator, act *tensor.Tensor) (*tensor.Tensor, error) {
	return o.layer.Forward(act, false), nil
}

func (o *affineOp) applyBatch(a *Accelerator, act *tensor.Tensor) (*tensor.Tensor, error) {
	return o.bn.Forward(act, false), nil
}

func (o *lockReluOp) applyBatch(a *Accelerator, act *tensor.Tensor) (*tensor.Tensor, error) {
	out := a.ws.Get(o.bOutKey, act.Shape...)
	copy(out.Data, act.Data)
	if o.lockID != "" {
		n := act.Shape[0]
		per := act.Len() / maxInt(n, 1)
		if per != o.neurons {
			//hpnn:allow(noalloc) cold error path
			return nil, fmt.Errorf("tpu: lock %s sized %d applied to %d activations per sample", o.lockID, o.neurons, per)
		}
		if !o.colsSet {
			o.cols = a.low.MACColumns(o.lockID, o.neurons)
			o.colsSet = true
		}
		if o.cols != nil {
			o.mask.refresh(a.mmu, o.cols)
			for i := 0; i < n; i++ {
				seg := out.Data[i*per : (i+1)*per]
				for j, m := range o.mask.neg {
					if m != 0 {
						seg[j] = -seg[j]
					}
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

func (o *residualOp) applyBatch(a *Accelerator, act *tensor.Tensor) (*tensor.Tensor, error) {
	body, err := runOpsBatch(a, o.body, act)
	if err != nil {
		return nil, err
	}
	skip := act
	if o.skip != nil {
		if skip, err = runOpsBatch(a, o.skip, act); err != nil {
			return nil, err
		}
	}
	if body.Len() != skip.Len() {
		//hpnn:allow(noalloc) cold error path
		return nil, fmt.Errorf("tpu: batched residual join mismatch %v vs %v", body.Shape, skip.Shape)
	}
	sum := a.ws.Get(o.bSumKey, body.Shape...)
	for i := range sum.Data {
		sum.Data[i] = body.Data[i] + skip.Data[i]
	}
	return runOpsBatch(a, o.post, sum)
}

func runOpsBatch(a *Accelerator, ops []planOp, act *tensor.Tensor) (*tensor.Tensor, error) {
	var err error
	for _, op := range ops {
		if act, err = op.applyBatch(a, act); err != nil {
			return nil, fmt.Errorf("%s: %w", op.opName(), err) //hpnn:allow(noalloc) cold error path
		}
	}
	return act, nil
}

// --- entry points ------------------------------------------------------------

// PredictBatchInto runs the micro-batch x ([N, C, H, W]) through the model
// on the batched int8 tier, writing the argmax class of sample i into
// preds[i]. It is the serving layer's batch entry point: zero heap
// allocations in steady state, and bit-for-bit the predictions (and
// hardware counters) the golden per-sample simulator would produce.
//
// Diagnostic device modes (GateLevel, Systolic) route through the
// per-sample simulator so gate-level observability is preserved; results
// are identical either way.
//
//hpnn:noalloc
func (a *Accelerator) PredictBatchInto(preds []int, m *core.Model, x *tensor.Tensor) error {
	plan, err := a.planFor(m)
	if err != nil {
		return err
	}
	if len(x.Shape) < 2 {
		//hpnn:allow(noalloc) cold error path
		return fmt.Errorf("tpu: batched input %v has no batch dimension", x.Shape)
	}
	n := x.Shape[0]
	if n == 0 {
		return nil
	}
	if len(preds) < n {
		//hpnn:allow(noalloc) cold error path
		return fmt.Errorf("tpu: prediction buffer %d shorter than batch %d", len(preds), n)
	}
	if a.mmu.cfg.GateLevel || a.mmu.cfg.Systolic {
		feat := x.Len() / n
		for i := 0; i < n; i++ {
			sample := tensor.ViewInto(&a.sampleView, x.Data[i*feat:(i+1)*feat], x.Shape[1:]...)
			out, err := runOps(a, plan, sample)
			if err != nil {
				return err
			}
			preds[i] = tensor.Argmax(out.Data)
		}
		return nil
	}
	out, err := runOpsBatch(a, plan, x)
	if err != nil {
		return err
	}
	cls := out.Len() / n
	for i := 0; i < n; i++ {
		preds[i] = tensor.Argmax(out.Data[i*cls : (i+1)*cls])
	}
	return nil
}

// PredictBatch is PredictBatchInto allocating the prediction slice.
func (a *Accelerator) PredictBatch(m *core.Model, x *tensor.Tensor) ([]int, error) {
	if len(x.Shape) < 2 {
		return nil, fmt.Errorf("tpu: batched input %v has no batch dimension", x.Shape)
	}
	preds := make([]int, x.Shape[0])
	if err := a.PredictBatchInto(preds, m, x); err != nil {
		return nil, err
	}
	return preds, nil
}
