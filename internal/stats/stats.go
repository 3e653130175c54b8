// Package stats provides the small statistical summaries the experiment
// harness reports: five-number box-plot summaries (Fig. 3), means and
// standard deviations, and ASCII rendering helpers.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary is a five-number summary plus mean and standard deviation — the
// contents of one box plot in Fig. 3.
type Summary struct {
	N                        int
	Min, Q1, Median, Q3, Max float64
	Mean, Std                float64
}

// Summarize computes a Summary of xs. It panics on an empty input.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("stats: empty sample")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sum, sumSq := 0.0, 0.0
	for _, v := range s {
		sum += v
		sumSq += v * v
	}
	n := float64(len(s))
	mean := sum / n
	variance := sumSq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return Summary{
		N:      len(s),
		Min:    s[0],
		Q1:     Quantile(s, 0.25),
		Median: Quantile(s, 0.5),
		Q3:     Quantile(s, 0.75),
		Max:    s[len(s)-1],
		Mean:   mean,
		Std:    math.Sqrt(variance),
	}
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted data using linear
// interpolation between order statistics.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("stats: empty sample")
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.4f q1=%.4f med=%.4f q3=%.4f max=%.4f mean=%.4f±%.4f",
		s.N, s.Min, s.Q1, s.Median, s.Q3, s.Max, s.Mean, s.Std)
}

// BoxPlot renders a width-character ASCII box plot of the summary over the
// [lo, hi] axis range — the terminal rendition of Fig. 3.
func (s Summary) BoxPlot(lo, hi float64, width int) string {
	if width < 10 {
		width = 10
	}
	if hi <= lo {
		hi = lo + 1
	}
	pos := func(v float64) int {
		p := int(math.Round((v - lo) / (hi - lo) * float64(width-1)))
		if p < 0 {
			p = 0
		}
		if p >= width {
			p = width - 1
		}
		return p
	}
	row := []rune(strings.Repeat(" ", width))
	for i := pos(s.Min); i <= pos(s.Max); i++ {
		row[i] = '-'
	}
	for i := pos(s.Q1); i <= pos(s.Q3); i++ {
		row[i] = '='
	}
	row[pos(s.Min)] = '|'
	row[pos(s.Max)] = '|'
	row[pos(s.Median)] = 'M'
	return string(row)
}

// PctDrop returns the accuracy drop from base to v in percentage points,
// the metric of Table I's "%drop" columns (e.g. 89.93 → 10.05 is a 79.88
// drop). base and v are fractions in [0, 1].
func PctDrop(base, v float64) float64 {
	return 100 * (base - v)
}
