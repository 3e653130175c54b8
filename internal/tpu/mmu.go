package tpu

import (
	"fmt"

	"hpnn/internal/keys"
)

// Config sizes the simulated matrix-multiply unit. The paper's device is
// 256×256 with 256 accumulator columns.
type Config struct {
	Rows, Cols int
	// GateLevel selects the bit-accurate accumulator datapath. It is
	// exact but much slower; the fast path is proven equivalent by
	// property tests.
	GateLevel bool
	// Bits is the datapath quantization width (2-8); 0 selects the TPU's
	// native 8. Narrower widths drive the quantization ablation.
	Bits int
	// Systolic routes every matmul through the register-level
	// weight-stationary PE-array simulation (systolic.go) instead of the
	// functional loop. Slow; results are identical (property-tested) and
	// the measured per-tile latency replaces the analytic estimate.
	Systolic bool
}

// DefaultConfig is the Google-TPU-like geometry of §III-D.
func DefaultConfig() Config { return Config{Rows: 256, Cols: 256} }

// Stats aggregates the hardware activity of a sequence of MMU operations.
type Stats struct {
	// Cycles is the modelled clock-cycle count: weight-stationary tiles,
	// each pipelined as (Rows + Cols) fill/drain plus one cycle per
	// streamed input column. The HPNN XOR gates add zero cycles.
	Cycles uint64
	// MACs is the number of multiply-accumulate operations performed.
	MACs uint64
	// TilePasses counts weight-tile loads.
	TilePasses uint64
	// GateOps counts logic-gate evaluations (gate-level mode only).
	GateOps uint64
	// LockedOutputs counts outputs computed with key bit 1 (negating).
	LockedOutputs uint64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Cycles += other.Cycles
	s.MACs += other.MACs
	s.TilePasses += other.TilePasses
	s.GateOps += other.GateOps
	s.LockedOutputs += other.LockedOutputs
}

// MMU simulates the matrix-multiply unit with key-dependent accumulators.
// The secret key is only reachable through the sealed device, exactly as
// in the hardware: the MMU asks the key store for the bit of each
// accumulator column it schedules an output onto.
type MMU struct {
	cfg   Config
	dev   *keys.Device
	stats Stats
}

// NewMMU builds an MMU bound to a trusted key device. dev may be nil,
// modelling commodity hardware without the HPNN extension (all key bits
// read as 0, every lock factor +1).
func NewMMU(cfg Config, dev *keys.Device) (*MMU, error) {
	if cfg.Rows <= 0 || cfg.Cols <= 0 {
		return nil, fmt.Errorf("tpu: invalid MMU geometry %dx%d", cfg.Rows, cfg.Cols)
	}
	return &MMU{cfg: cfg, dev: dev}, nil
}

// Stats returns the accumulated activity counters.
func (m *MMU) Stats() Stats { return m.stats }

// ResetStats clears the activity counters.
func (m *MMU) ResetStats() { m.stats = Stats{} }

// columnBit fetches the key bit for an accumulator column from the sealed
// device (0 when no HPNN device is attached).
func (m *MMU) columnBit(col int) byte {
	if m.dev == nil {
		return 0
	}
	return m.dev.ColumnBit(col)
}

// deviceRevoked reports whether the attached device's license has been
// pulled. The GEMM tier caches per-output sign masks derived from
// ColumnBit, and revocation is the only event that changes those answers
// at runtime — so one revocation probe per op per batch keeps the cache
// honest without re-querying every column bit per output.
func (m *MMU) deviceRevoked() bool {
	return m.dev != nil && m.dev.Revoked()
}

// MatMulLockedInto computes out[o][p] = L·(Σ_k W[o][k]·X[k][p] + bias[o])
// in int32 into dst (grown as needed and returned), where the lock factor L
// of output neuron (o, p) is set by the key bit of accumulator column
// cols[o·P+p] (the hardware schedule's neuron→column assignment; nil means
// unlocked). W is [M, K] int8, X is [K, P] int8, bias is per-output-row
// int32 at accumulator scale. Compiled plan ops keep one accumulator
// buffer per op, so a steady-state PredictSample — every MAC on this
// unit — performs no MMU-side allocation.
//
// The bias is preloaded into the accumulator register. Because the paper's
// lock applies to the whole pre-activation MAC_j (the bias is the weight of
// a constant-one input), the bias preload path is conditioned by the same
// key bit as the product stream — negated on preload when k = 1 — so the
// unit produces exactly L_j·(Σ a·w + b).
func (m *MMU) MatMulLockedInto(dst []int32, w []int8, mRows, k int, x []int8, p int, bias []int32, cols []int) []int32 {
	if len(w) != mRows*k {
		panic(fmt.Sprintf("tpu: weight buffer %d != %d×%d", len(w), mRows, k))
	}
	if len(x) != k*p {
		panic(fmt.Sprintf("tpu: input buffer %d != %d×%d", len(x), k, p))
	}
	if cols != nil && len(cols) != mRows*p {
		panic(fmt.Sprintf("tpu: column assignment %d != %d outputs", len(cols), mRows*p))
	}
	if m.cfg.Systolic {
		//hpnn:allow(noalloc) register-level simulation path: diagnostic mode, never steady-state serving
		return m.matMulSystolic(w, mRows, k, x, p, bias, cols)
	}
	if cap(dst) < mRows*p {
		dst = make([]int32, mRows*p) //hpnn:allow(noalloc) grow-on-first-use; plan ops keep one accumulator buffer per op
	}
	out := dst[:mRows*p]
	var gateOps, locked uint64
	unit := Accumulator{GateLevel: m.cfg.GateLevel}
	for o := 0; o < mRows; o++ {
		wRow := w[o*k : (o+1)*k]
		var b int32
		if bias != nil {
			b = bias[o]
		}
		for pp := 0; pp < p; pp++ {
			kb := byte(0)
			if cols != nil {
				kb = m.columnBit(cols[o*p+pp])
			}
			unit.KeyBit = kb
			unit.Reset()
			if kb == 1 {
				locked++
				unit.Preload(-b) // lock factor applies to the whole MAC_j incl. folded bias
			} else {
				unit.Preload(b)
			}
			for kk, wv := range wRow {
				unit.AddProduct(mul8(x[kk*p+pp], wv))
			}
			out[o*p+pp] = unit.Value()
		}
	}
	gateOps = unit.GateOps
	m.accountMatMul(mRows, k, p, gateOps, locked)
	return out
}

// accountMatMul updates the cycle/MAC counters for one W[M,K]·X[K,P]
// operation under weight-stationary tiling.
func (m *MMU) accountMatMul(mRows, k, p int, gateOps, locked uint64) {
	tilesK := (k + m.cfg.Rows - 1) / m.cfg.Rows
	tilesM := (mRows + m.cfg.Cols - 1) / m.cfg.Cols
	passes := uint64(tilesK * tilesM)
	perPass := uint64(m.cfg.Rows + m.cfg.Cols + p)
	m.stats.TilePasses += passes
	m.stats.Cycles += passes * perPass
	m.stats.MACs += uint64(mRows) * uint64(k) * uint64(p)
	m.stats.GateOps += gateOps
	m.stats.LockedOutputs += locked
}

// ReLUQuantizeInto is the activation unit: ReLU on the int32 accumulators,
// then requantization of the surviving range to int8 with the returned
// scale, written into dst (grown as needed and returned) so compiled
// inference ops reuse one buffer across samples. accScale is the
// accumulator LSB value (inputScale·weightScale).
func ReLUQuantizeInto(dst []int8, acc []int32, accScale float64) ([]int8, float64) {
	if cap(dst) < len(acc) {
		dst = make([]int8, len(acc)) //hpnn:allow(noalloc) grow-on-first-use; plan ops reuse one activation buffer
	}
	dst = dst[:len(acc)]
	maxV := int32(0)
	for _, v := range acc {
		if v > maxV {
			maxV = v
		}
	}
	if maxV == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return dst, 1
	}
	outScale := float64(maxV) * accScale / 127
	inv := accScale / outScale
	for i, v := range acc {
		if v <= 0 {
			dst[i] = 0
			continue
		}
		dst[i] = clampInt8(float64(v)*inv + 0.5)
	}
	return dst, outScale
}

// matMulSystolic executes the operation tile-by-tile on the register-level
// PE array. Raw partial results accumulate across K tiles; bias preload and
// the key-dependent negation apply once at the column accumulators, exactly
// as in the functional path. Cycle accounting uses the measured pipeline
// latency instead of the analytic estimate.
func (m *MMU) matMulSystolic(w []int8, mRows, k int, x []int8, p int, bias []int32, cols []int) []int32 {
	arr, err := NewSystolicArray(m.cfg.Rows, m.cfg.Cols)
	if err != nil {
		panic("tpu: " + err.Error())
	}
	raw := make([]int64, mRows*p)
	var locked uint64
	tilesK := (k + m.cfg.Rows - 1) / m.cfg.Rows
	tilesM := (mRows + m.cfg.Cols - 1) / m.cfg.Cols
	for tm := 0; tm < tilesM; tm++ {
		m0 := tm * m.cfg.Cols
		mEnd := minI(m0+m.cfg.Cols, mRows)
		tileM := mEnd - m0
		for tk := 0; tk < tilesK; tk++ {
			k0 := tk * m.cfg.Rows
			kEnd := minI(k0+m.cfg.Rows, k)
			tileK := kEnd - k0
			// Gather the K×M weight tile (transposed from the row-major
			// [M, K] layout) and the K×P input slab.
			wt := make([]int8, tileK*tileM)
			for kk := 0; kk < tileK; kk++ {
				for mm := 0; mm < tileM; mm++ {
					wt[kk*tileM+mm] = w[(m0+mm)*k+k0+kk]
				}
			}
			xt := make([]int8, tileK*p)
			copy(xt, x[k0*p:kEnd*p])
			if err := arr.LoadWeights(wt, tileK, tileM); err != nil {
				panic("tpu: " + err.Error())
			}
			part, _, err := arr.MatMulTile(xt, tileK, p, tileM, nil)
			if err != nil {
				panic("tpu: " + err.Error())
			}
			for mm := 0; mm < tileM; mm++ {
				for pp := 0; pp < p; pp++ {
					raw[(m0+mm)*p+pp] += int64(part[mm*p+pp])
				}
			}
		}
	}
	out := make([]int32, mRows*p)
	for o := 0; o < mRows; o++ {
		var b int64
		if bias != nil {
			b = int64(bias[o])
		}
		for pp := 0; pp < p; pp++ {
			v := raw[o*p+pp] + b
			if cols != nil && m.columnBit(cols[o*p+pp]) == 1 {
				v = -v
				locked++
			}
			out[o*p+pp] = int32(v)
		}
	}
	// Account with the measured array cycles (weight loads + streaming).
	m.stats.TilePasses += uint64(tilesK * tilesM)
	m.stats.Cycles += arr.CyclesRun
	m.stats.MACs += uint64(mRows) * uint64(k) * uint64(p)
	m.stats.LockedOutputs += locked
	return out
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}
