package tpu

import (
	"hpnn/internal/tensor"
)

// This file is the MAC step of the conv and dense ops, the one place where
// execution branches on the backend. Every op runs over a [N, ...] block
// (plan.go); its MACs then go either
//
//   - to the packed float64 GEMM (tensor/gemm.go, the engine training uses),
//     whose operands are the datapath's int8 codes held as float64, with
//     the bias and the lock applied in an epilogue — the production tier of
//     PredictBatchInto, Predict and Accuracy; or
//   - to the simulated MMU's MatMulLockedInto (mmu.go), which preloads the
//     bias and reads each output's key bit through the device's column
//     probe — the golden reference of PredictSample, and the backend of the
//     GateLevel and Systolic diagnostic modes, which must observe every gate
//     evaluation and every cycle.
//
// The GEMM is differentially pinned to the MMU: for every registered lock
// scheme, every sample of a batch must produce bit-for-bit the same
// activations — and therefore the same predictions and hardware counters —
// as PredictSample. The reference shares nothing the GEMM could get wrong:
// it quantizes the gathered column matrix (never the stride-1 image
// shortcut), reads key bits through columnBit (never the cached mask) and
// multiplies int8 codes. The equality is not approximate. It rests on three
// facts:
//
//   - the float sum is the exact integer sum: every code is in
//     [−127, 127], so every product is at most 127² and |Σ| ≤ k·127² < 2⁵³,
//     and float64 adds integers that small without rounding, in any order;
//     int32(int64(Σ)) then wraps it to 32 bits, and int32 addition wraps
//     identically in any association, so adding the bias gives the
//     accumulator chain's sequential preload-and-add for any k;
//   - the HPNN lock factor L ∈ {+1, −1} applied by the key-conditioned
//     accumulator is a post-sum negation (§III-D: the XOR gates add no
//     cycles): −(b+Σ) under wrapping arithmetic equals the branchless
//     two's-complement flip (s ^ −1) − (−1), so the lock folds into the
//     GEMM epilogue as a per-output sign mask;
//   - activation quantization is per sample on both backends (quantizeSlice
//     is operation-for-operation QuantizeToInto, widening each int8 code),
//     so scales — and thus every downstream float — agree bitwise.
//
// Key bits are cached as sign masks per op. Revocation is the only runtime
// event that changes a ColumnBit answer, so each op probes the device's
// revocation state once per batch (lockMask.refresh) instead of re-asking
// for every output of every sample — the cache can never serve stale lock
// state across a license pull.

// lockMask caches the per-output sign masks an op derives from the sealed
// device's key bits: neg[j] is −1 where the key bit reads 1 (negating
// accumulator) and 0 elsewhere, so the epilogue flip is branch-free:
// (s ^ neg) − neg. locked counts the negating outputs, feeding the same
// LockedOutputs accounting as the MMU.
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
// alias of the backing array reads zeros too.
func (lm *lockMask) wipe() {
	clear(lm.neg)
	*lm = lockMask{}
}

// macCore is the MAC state a fused conv or dense op keeps: the (folded)
// float weights W[m, k] and bias, their codes, the lock's column
// assignment and sign mask, and the per-sample accumulator scratch.
type macCore struct {
	w, b   *tensor.Tensor
	m, k   int
	lockID string
	relu   bool
	ownsWB bool // w and b are the BN fold's clones, not the model's tensors

	outKey, wKey string
	qW           *QTensor       // weight codes, quantized on first run
	wCodes       *tensor.Tensor // qW widened to float64 under wKey (GEMM only)
	cols         []int
	colsSet      bool // scheme lowering answered (nil = no in-datapath lock)
	mask         lockMask
	bias         []int32
	acc          []int32
	x8           []int8 // the MMU's input codes
	q8           []int8
}

// prepare readies an op's weights and lock for one run: it quantizes the
// weights on first use and lowers the lock's column assignment once. On the
// GEMM it also widens the weight codes once into the workspace, so
// WorkspaceBytes (and the serving registry's memory budget) counts them, and
// refreshes the sign mask the epilogue reads.
func (c *macCore) prepare(a *Accelerator, outputs int) {
	if c.qW == nil {
		c.qW = a.quantize(c.w)
	}
	if c.lockID != "" && !c.colsSet {
		c.cols = a.low.MACColumns(c.lockID, outputs)
		c.colsSet = true
	}
	if a.onMMU {
		return
	}
	if c.wCodes == nil {
		c.wCodes = a.ws.Get(c.wKey, len(c.qW.Data))
		for i, v := range c.qW.Data {
			c.wCodes.Data[i] = float64(v)
		}
	}
	if c.cols != nil {
		c.mask.refresh(a.mmu, c.cols)
	}
}

// finish completes one sample's MAC into dst, its [m, p] output segment;
// x holds the sample's input codes [k, p] at scale inScale. On the GEMM, dst
// already holds the exact sums W·x, and the epilogue adds the bias and
// applies the lock as a sign mask. On the MMU the codes narrow to int8 and
// stream through MatMulLockedInto. Either way the activation unit then
// overwrites dst.
func (c *macCore) finish(a *Accelerator, dst, x []float64, p int, inScale float64) {
	accScale := inScale * c.qW.Scale
	c.bias = QuantizeBiasInto(c.bias, c.b, accScale)
	if a.onMMU {
		if cap(c.x8) < len(x) {
			c.x8 = make([]int8, len(x)) //hpnn:allow(noalloc) grow-on-first-use; steady state reuses capacity
		}
		c.x8 = c.x8[:len(x)]
		for i, v := range x {
			c.x8[i] = int8(v)
		}
		c.acc = a.mmu.MatMulLockedInto(c.acc, c.qW.Data, c.m, c.k, c.x8, p, c.bias, c.cols)
	} else {
		c.acc = tensor.EnsureInt32s(c.acc, c.m*p)
		for o := 0; o < c.m; o++ {
			sums, row, b := dst[o*p:(o+1)*p], c.acc[o*p:(o+1)*p], c.bias[o]
			var mrow []int32
			if c.cols != nil {
				mrow = c.mask.neg[o*p : (o+1)*p]
			}
			for j, v := range sums {
				s := int32(int64(v)) + b
				if mrow != nil {
					s = (s ^ mrow[j]) - mrow[j]
				}
				row[j] = s
			}
		}
		a.mmu.accountMatMul(c.m, c.k, p, 0, c.mask.locked)
	}
	c.q8 = finishMACSlice(dst, c.acc, accScale, c.relu, c.q8)
}

// wipe zeroes what the op owns that derives from the key or the weights:
// the sign mask, the int8 weight codes, the BN fold's weights and the
// accumulator scratch. The widened codes live in the workspace, which
// Release zeroes as a whole. A w or b the op does not own is the model's
// tensor and is left alone.
func (c *macCore) wipe() {
	c.mask.wipe()
	if c.qW != nil {
		clear(c.qW.Data)
	}
	if c.ownsWB {
		clear(c.w.Data)
		clear(c.b.Data)
	}
	clear(c.acc)
	clear(c.x8)
	clear(c.q8)
}
