// Package tpu is a bit-accurate behavioural and timing simulator of the
// paper's hardware root of trust: a Google-TPU-like inference accelerator
// whose matrix-multiply unit (MMU) computes 8-bit MACs, with the HPNN
// modification of §III-D — per-accumulator XOR gates that conditionally
// negate each product under control of an on-chip secret key bit, realizing
// out_j = f(L_j·MAC_j) in hardware.
//
// The simulator provides:
//
//   - int8 symmetric quantization of weights and activations
//     (quantizeSlice);
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

// quantizeSlice quantizes src into dst (same length, caller-sized; dst may
// be src) and returns the symmetric scale chosen so the largest magnitude
// maps to ±(2^(bits-1)−1); an all-zero src quantizes with scale 1. It is
// the datapath's one quantizer: compile quantizes each op's weights
// through it, and every op quantizes each sample's activations through it
// on both MAC backends. Widths 2-8 model cheaper edge accelerators and
// drive the quantization ablation. The tests pin it against the reference
// QTensor quantizer (TestQuantizeSliceMatchesQuantizeToInto).
//
// dst holds each code widened to float64 for the float GEMM, and the code
// is float64(int8(r)), never the rounded float r: a finite sample whose
// max |x| is near the smallest normal has 1/scale = +Inf, so its zeros
// round through 0·Inf = NaN. int8(NaN) is 0; a NaN code would poison every
// sum it enters.
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

// QuantizeBiasInto converts a float bias vector to int32 at the accumulator
// scale (inputScale · weightScale), the standard integer-only inference
// convention, writing into dst (grown as needed). The bias requantizes
// every sample — its scale tracks the input scale — so the compiled ops
// keep one buffer alive instead of allocating per inference.
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
