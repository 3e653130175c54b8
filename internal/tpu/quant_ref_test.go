package tpu

import (
	"fmt"
	"math"

	"hpnn/internal/tensor"
)

// The reference quantizer and the allocating MMU and activation-unit
// wrappers. The datapath quantizes through quantizeSlice and runs the
// *Into forms; these are what the tests pin those against.

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

// QuantizeTo quantizes to a signed datapath of the given bit width (2-8):
// values map symmetrically onto ±(2^(bits-1)−1).
func QuantizeTo(t *tensor.Tensor, bits int) *QTensor {
	return QuantizeToInto(nil, t, bits)
}

// QuantizeToInto is QuantizeTo reusing q's storage (nil allocates a fresh
// QTensor): the reference the production quantizeSlice is pinned against.
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
		q = &QTensor{}
	}
	q.Shape = append(q.Shape[:0], t.Shape...)
	if cap(q.Data) < t.Len() {
		q.Data = make([]int8, t.Len())
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

// QuantizeBias is QuantizeBiasInto allocating its output.
func QuantizeBias(b *tensor.Tensor, accScale float64) []int32 {
	return QuantizeBiasInto(nil, b, accScale)
}

// String describes the quantized tensor.
func (q *QTensor) String() string {
	return fmt.Sprintf("QTensor%v(scale=%.3g)", q.Shape, q.Scale)
}

// Config returns the MMU geometry.
func (m *MMU) Config() Config { return m.cfg }

// MatMulLocked is MatMulLockedInto allocating its output.
func (m *MMU) MatMulLocked(w []int8, mRows, k int, x []int8, p int, bias []int32, cols []int) []int32 {
	return m.MatMulLockedInto(nil, w, mRows, k, x, p, bias, cols)
}

// ReLUQuantize is ReLUQuantizeInto allocating its output.
func ReLUQuantize(acc []int32, accScale float64) ([]int8, float64) {
	return ReLUQuantizeInto(nil, acc, accScale)
}

// Rows returns the PE-grid row count.
func (s *SystolicArray) Rows() int { return s.rows }

// Cols returns the PE-grid column count.
func (s *SystolicArray) Cols() int { return s.cols }
