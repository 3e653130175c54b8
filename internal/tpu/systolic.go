package tpu

import "fmt"

// This file is a register-level simulation of the weight-stationary
// systolic array behind the analytic cycle model in mmu.go: an R×C grid of
// processing elements (PEs), each holding one stationary weight, an input
// register and a partial-sum register.
//
// Per cycle, every PE multiplies the activation arriving from its west
// neighbour with its stationary weight, adds the partial sum arriving from
// its north neighbour, and latches both for its east/south neighbours —
// the Google-TPU dataflow the paper's Fig. 4(a) sketches. Activations are
// fed skewed (row r enters r cycles late), so column c's accumulator
// receives one finished dot product per cycle after the pipeline fills.
//
// The HPNN modification lives where the paper puts it: at the column
// accumulators that collect the partial sums leaving the array's south
// edge, whose key bit conditionally negates the incoming value. The
// simulation exists to validate the analytic model: identical results to
// MatMulLockedInto and a measured pipeline latency that matches the
// fill + stream + drain accounting.

// SystolicArray is a weight-stationary PE grid.
type SystolicArray struct {
	rows, cols int

	weights [][]int32 // stationary weights [row][col]
	inReg   [][]int32 // activation registers (west→east pipeline)
	psumReg [][]int32 // partial-sum registers (north→south pipeline)

	// CyclesRun counts simulated clock cycles.
	CyclesRun uint64
}

// NewSystolicArray builds an idle array.
func NewSystolicArray(rows, cols int) (*SystolicArray, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("tpu: invalid systolic geometry %dx%d", rows, cols)
	}
	s := &SystolicArray{rows: rows, cols: cols}
	s.weights = alloc2d(rows, cols)
	s.inReg = alloc2d(rows, cols)
	s.psumReg = alloc2d(rows, cols)
	return s, nil
}

func alloc2d(r, c int) [][]int32 {
	m := make([][]int32, r)
	for i := range m {
		m[i] = make([]int32, c)
	}
	return m
}

// LoadWeights makes the K×M tile stationary: w[k][m] is the weight of
// input k for output m (K ≤ rows, M ≤ cols; unused PEs hold zero).
// Loading a tile costs rows cycles (one row per cycle down the array).
func (s *SystolicArray) LoadWeights(w []int8, k, m int) error {
	if k > s.rows || m > s.cols {
		return fmt.Errorf("tpu: tile %dx%d exceeds array %dx%d", k, m, s.rows, s.cols)
	}
	if len(w) != k*m {
		return fmt.Errorf("tpu: weight tile buffer %d != %d×%d", len(w), k, m)
	}
	for r := 0; r < s.rows; r++ {
		for c := 0; c < s.cols; c++ {
			if r < k && c < m {
				s.weights[r][c] = int32(w[r*m+c])
			} else {
				s.weights[r][c] = 0
			}
		}
	}
	s.CyclesRun += uint64(s.rows)
	return nil
}

// step advances the array one clock: data moves east (activations) and
// south (partial sums) through the PE registers. west holds the
// activations entering column 0 this cycle (one per row); the returned
// slice holds the partial sums leaving the south edge (one per column).
func (s *SystolicArray) step(west []int32) []int32 {
	south := make([]int32, s.cols)
	// Update from bottom-right to top-left so reads see last cycle's
	// register values (classic two-phase latch emulation in-place).
	for r := s.rows - 1; r >= 0; r-- {
		for c := s.cols - 1; c >= 0; c-- {
			var inAct int32
			if c == 0 {
				inAct = west[r]
			} else {
				inAct = s.inReg[r][c-1]
			}
			var inPsum int32
			if r == 0 {
				inPsum = 0
			} else {
				inPsum = s.psumReg[r-1][c]
			}
			if c == s.cols-1 {
				// The east register is consumed; nothing to latch beyond.
			}
			out := inPsum + inAct*s.weights[r][c]
			if r == s.rows-1 {
				south[c] = out
			}
			s.psumReg[r][c] = out
			s.inReg[r][c] = inAct
		}
	}
	s.CyclesRun++
	return south
}

// MatMulTile computes out[m][p] = Σ_k w[k][m]·x[k][p] by streaming the
// K×P input through the loaded K×M weight tile with proper skewing, and
// applying per-output key bits at the column accumulators (kbits may be
// nil; kbits[m*P+p] negates output (m, p)). It returns the M×P results and
// the exact pipeline latency in cycles.
func (s *SystolicArray) MatMulTile(x []int8, k, p int, m int, kbits []byte) ([]int32, uint64, error) {
	if len(x) != k*p {
		return nil, 0, fmt.Errorf("tpu: input buffer %d != %d×%d", len(x), k, p)
	}
	if kbits != nil && len(kbits) != m*p {
		return nil, 0, fmt.Errorf("tpu: key bits %d != %d outputs", len(kbits), m*p)
	}
	start := s.CyclesRun
	out := make([]int32, m*p)

	// Column c's result for input column t emerges from the south edge at
	// cycle t + rows + c (skew in + pipeline depth + skew across columns).
	// Total cycles: P + rows + cols.
	total := p + s.rows + s.cols
	for cyc := 0; cyc < total; cyc++ {
		west := make([]int32, s.rows)
		for r := 0; r < s.rows; r++ {
			t := cyc - r // row r's activation stream is delayed r cycles
			if r < k && t >= 0 && t < p {
				west[r] = int32(x[r*p+t])
			}
		}
		south := s.step(west)
		for c := 0; c < m && c < s.cols; c++ {
			// Output (c, t) leaves the south edge at cycle t + (rows-1) + c:
			// t+r+c is when PE(r,c) folds in x[r][t], and the deepest row is
			// rows-1.
			t := cyc - (s.rows - 1) - c
			if t >= 0 && t < p {
				v := south[c]
				if kbits != nil && kbits[c*p+t] == 1 {
					v = -v
				}
				out[c*p+t] = v
			}
		}
	}
	return out, s.CyclesRun - start, nil
}
