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
//   - both backends quantize through one quantizer (quantizeSlice): the
//     weights once at compile, the activations per sample, so scales — and
//     thus every downstream float — agree bitwise.
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

// refresh rebuilds the mask, in s, if it has never been built or the
// device's revocation state changed since it was. One Revoked probe per op
// per batch keeps the cache honest; everything else is cached forever (key
// bits are sealed in hardware and cannot change).
//
//hpnn:noalloc
func (lm *lockMask) refresh(s *state, m *MMU, cols []int) {
	rev := m.deviceRevoked()
	if lm.built && lm.revoked == rev && len(lm.neg) == len(cols) {
		return
	}
	lm.neg = grow(s, lm.neg, len(cols))
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

// macCore is the program side of a fused conv or dense op: the codes of
// the (folded) weights W[m, k] and their scale, the float bias, and the
// lock's column assignment (nil when the scheme places no lock in the
// datapath). The device side — the sign mask and the integer scratch — is
// the op's opState.
type macCore struct {
	b     *tensor.Tensor
	m, k  int
	relu  bool
	ownsB bool // b is the BN fold's clone, not the model's tensor

	wCodes []float64 // W's codes at the datapath width, widened for the GEMM
	w8     []int8    // the same codes narrowed for the MMU
	wScale float64   // W ≈ wScale·codes
	cols   []int
	slot   int
}

// ready sizes the op's device scratch for p outputs per sample and output
// row — bias, accumulators, requantized codes, the MMU's input codes when
// the run is on it — and on the GEMM refreshes the sign mask the epilogue
// reads. It returns the op's state.
func (c *macCore) ready(a *Accelerator, s *state, p int) *opState {
	st := &s.ops[c.slot]
	st.bias = grow(s, st.bias, c.m)
	st.acc = grow(s, st.acc, c.m*p)
	if c.relu {
		st.q8 = grow(s, st.q8, c.m*p)
	}
	if a.onMMU {
		st.x8 = grow(s, st.x8, c.k*p)
	} else if c.cols != nil {
		st.mask.refresh(s, a.mmu, c.cols)
	}
	return st
}

// finish completes one sample's MAC into dst, its [m, p] output segment;
// x holds the sample's input codes [k, p] at scale inScale. On the GEMM, dst
// already holds the exact sums W·x, and the epilogue adds the bias and
// applies the lock as a sign mask. On the MMU the codes narrow to int8 and
// stream through MatMulLockedInto. Either way the activation unit then
// overwrites dst.
func (c *macCore) finish(a *Accelerator, st *opState, dst, x []float64, p int, inScale float64) {
	accScale := inScale * c.wScale
	st.bias = QuantizeBiasInto(st.bias, c.b, accScale)
	if a.onMMU {
		for i, v := range x {
			st.x8[i] = int8(v)
		}
		st.acc = a.mmu.MatMulLockedInto(st.acc, c.w8, c.m, c.k, st.x8, p, st.bias, c.cols)
	} else {
		for o := 0; o < c.m; o++ {
			sums, row, b := dst[o*p:(o+1)*p], st.acc[o*p:(o+1)*p], st.bias[o]
			var mrow []int32
			if c.cols != nil {
				mrow = st.mask.neg[o*p : (o+1)*p]
			}
			for j, v := range sums {
				s := int32(int64(v)) + b
				if mrow != nil {
					s = (s ^ mrow[j]) - mrow[j]
				}
				row[j] = s
			}
		}
		a.mmu.accountMatMul(c.m, c.k, p, 0, st.mask.locked)
	}
	st.q8 = finishMACSlice(dst, st.acc, accScale, c.relu, st.q8)
}
