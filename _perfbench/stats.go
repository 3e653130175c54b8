package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of sorted by linear
// interpolation between the two closest ranks, the convention numpy and
// Python's statistics module use by default. It returns NaN for no samples.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the 0.5-percentile of unsorted samples.
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 0.5) }

// logHist is a fixed log-bucket histogram: bucket 0 holds values below
// base, bucket i ≥ 1 holds [base·growth^(i-1), base·growth^i), and the last
// bucket is open-ended. Recording is O(1) and two histograms with the same
// layout merge by adding counts, so per-connection histograms combine
// exactly.
type logHist struct {
	base, growth float64
	counts       []uint64
}

func newLogHist(base, growth float64, buckets int) *logHist {
	return &logHist{base: base, growth: growth, counts: make([]uint64, buckets)}
}

// bucket returns the index v falls into.
func (h *logHist) bucket(v float64) int {
	if v < h.base {
		return 0
	}
	i := 1 + int(math.Floor(math.Log(v/h.base)/math.Log(h.growth)))
	if i >= len(h.counts) {
		return len(h.counts) - 1
	}
	return i
}

func (h *logHist) add(v float64) { h.counts[h.bucket(v)]++ }
