// Package tpu is a bit-accurate behavioural and timing simulator of the
// paper's hardware root of trust: a Google-TPU-like inference accelerator
// whose matrix-multiply unit (MMU) computes 8-bit MACs, with the HPNN
// modification of §III-D — per-accumulator XOR gates that conditionally
// negate each product under control of an on-chip secret key bit, realizing
// out_j = f(L_j·MAC_j) in hardware.
//
// The simulator provides:
//
//   - int8 symmetric quantization of weights and activations (Quantize);
//   - a gate-level model of the key-dependent accumulator (acc.go) whose
//     bit-for-bit behaviour is proven equal to integer arithmetic by
//     property tests, plus a fast arithmetic mode for full-dataset runs;
//   - a weight-stationary MMU with tile scheduling, cycle accounting and
//     gate-count reporting (mmu.go, gates.go) — the numbers behind the
//     paper's "<0.5 % area, no clock-cycle overhead" claim;
//   - end-to-end locked inference of trained HPNN models (infer.go).
package tpu

import (
	"fmt"
	"math"

	"hpnn/internal/tensor"
)

// QTensor is an int8-quantized tensor with a symmetric per-tensor scale:
// real ≈ Scale · int8. This mirrors the TPU's signed 8-bit datapath.
type QTensor struct {
	Shape []int
	Data  []int8
	Scale float64
}

// Quantize converts t to int8 with a symmetric scale chosen so the largest
// magnitude maps to ±127. An all-zero tensor quantizes with scale 1.
func Quantize(t *tensor.Tensor) *QTensor { return QuantizeTo(t, 8) }

// QuantizeTo quantizes to a narrower signed datapath of the given bit
// width (2-8): values map symmetrically onto ±(2^(bits-1)−1). Narrower
// widths model cheaper edge accelerators and drive the quantization
// ablation.
func QuantizeTo(t *tensor.Tensor, bits int) *QTensor {
	return QuantizeToInto(nil, t, bits)
}

// QuantizeToInto is QuantizeTo reusing q's storage (nil allocates a fresh
// QTensor). Activation quantization runs once per op per sample, so buffer
// reuse here keeps steady-state inference allocation-free.
func QuantizeToInto(q *QTensor, t *tensor.Tensor, bits int) *QTensor {
	if bits < 2 || bits > 8 {
		panic(fmt.Sprintf("tpu: quantization width %d out of [2,8]", bits))
	}
	qmax := float64(int(1)<<(bits-1) - 1)
	maxAbs := t.MaxAbs()
	scale := 1.0
	if maxAbs > 0 {
		scale = maxAbs / qmax
	}
	if q == nil {
		q = &QTensor{} //hpnn:allow(noalloc) first-use allocation; compiled ops pass a live QTensor
	}
	q.Shape = append(q.Shape[:0], t.Shape...)
	if cap(q.Data) < t.Len() {
		q.Data = make([]int8, t.Len()) //hpnn:allow(noalloc) grow-on-first-use; steady state reuses capacity
	}
	q.Data = q.Data[:t.Len()]
	q.Scale = scale
	inv := 1 / scale
	for i, v := range t.Data {
		r := math.Round(v * inv)
		if r > qmax {
			r = qmax
		}
		if r < -qmax {
			r = -qmax
		}
		q.Data[i] = int8(r)
	}
	return q
}

// quantizeSlice quantizes src into dst (same length, caller-sized; dst may
// be src) and returns the symmetric scale. It is the raw-slice core of
// QuantizeToInto and MUST stay operation-for-operation identical to it —
// same max-abs scan, same scale rule, same round-and-clamp — because every
// op quantizes each sample's activations through this path on both MAC
// backends, and the codes must be the datapath's QuantizeTo codes (pinned
// by TestQuantizeSliceMatchesQuantizeToInto).
//
// dst holds each code widened to float64 for the float GEMM, and the code
// is float64(int8(r)), never the rounded float r: a finite sample whose
// max |x| is near the smallest normal has 1/scale = +Inf, so its zeros
// round through 0·Inf = NaN. QuantizeToInto stores int8(NaN), which is 0;
// a NaN code would poison every sum it enters.
//
//hpnn:noalloc
func quantizeSlice(dst, src []float64, bits int) float64 {
	if len(dst) != len(src) {
		panic("tpu: quantizeSlice length mismatch")
	}
	if bits < 2 || bits > 8 {
		panic(fmt.Sprintf("tpu: quantization width %d out of [2,8]", bits))
	}
	qmax := float64(int(1)<<(bits-1) - 1)
	maxAbs := 0.0
	for _, v := range src {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	scale := 1.0
	if maxAbs > 0 {
		scale = maxAbs / qmax
	}
	inv := 1 / scale
	for i, v := range src {
		r := math.Round(v * inv)
		if r > qmax {
			r = qmax
		}
		if r < -qmax {
			r = -qmax
		}
		dst[i] = float64(int8(r))
	}
	return scale
}

func clampInt8(v float64) int8 {
	if v > 127 {
		return 127
	}
	if v < -128 {
		return -128
	}
	return int8(v)
}

// Dequantize converts back to float64.
func (q *QTensor) Dequantize() *tensor.Tensor {
	t := tensor.New(q.Shape...)
	for i, v := range q.Data {
		t.Data[i] = float64(v) * q.Scale
	}
	return t
}

// Len returns the element count.
func (q *QTensor) Len() int { return len(q.Data) }

// QuantizeBias converts a float bias vector to int32 at the accumulator
// scale (inputScale · weightScale), the standard integer-only inference
// convention.
func QuantizeBias(b *tensor.Tensor, accScale float64) []int32 {
	return QuantizeBiasInto(nil, b, accScale)
}

// QuantizeBiasInto is QuantizeBias writing into dst (grown as needed). The
// bias requantizes every sample — its scale tracks the input scale — so the
// compiled ops keep one buffer alive instead of allocating per inference.
func QuantizeBiasInto(dst []int32, b *tensor.Tensor, accScale float64) []int32 {
	if cap(dst) < b.Len() {
		dst = make([]int32, b.Len()) //hpnn:allow(noalloc) grow-on-first-use; steady state reuses capacity
	}
	out := dst[:b.Len()]
	inv := 1 / accScale
	for i, v := range b.Data {
		r := math.Round(v * inv)
		if r > math.MaxInt32 {
			r = math.MaxInt32
		}
		if r < math.MinInt32 {
			r = math.MinInt32
		}
		out[i] = int32(r)
	}
	return out
}

// String describes the quantized tensor.
func (q *QTensor) String() string {
	return fmt.Sprintf("QTensor%v(scale=%.3g)", q.Shape, q.Scale)
}
