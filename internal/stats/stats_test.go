package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"hpnn/internal/rng"
)

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("summary wrong: %+v", s)
	}
	if s.Q1 != 2 || s.Q3 != 4 {
		t.Fatalf("quartiles wrong: %+v", s)
	}
	if s.Mean != 3 {
		t.Fatalf("mean wrong: %v", s.Mean)
	}
	if math.Abs(s.Std-math.Sqrt(2)) > 1e-12 {
		t.Fatalf("std wrong: %v", s.Std)
	}
}

func TestSummarizeSingleton(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Min != 7 || s.Max != 7 || s.Median != 7 || s.Std != 0 {
		t.Fatalf("singleton summary wrong: %+v", s)
	}
}

func TestSummarizeEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty Summarize did not panic")
		}
	}()
	Summarize(nil)
}

func TestSummaryOrderingProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		r := rng.New(seed)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Norm()
		}
		s := Summarize(xs)
		return s.Min <= s.Q1 && s.Q1 <= s.Median && s.Median <= s.Q3 && s.Q3 <= s.Max &&
			s.Min <= s.Mean && s.Mean <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Summarize mutated its input")
	}
}

func TestQuantileEdges(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	if Quantile(s, 0) != 1 || Quantile(s, 1) != 4 {
		t.Fatal("extreme quantiles wrong")
	}
	if Quantile(s, 0.5) != 2.5 {
		t.Fatalf("median of even-sized data wrong: %v", Quantile(s, 0.5))
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		xs := make([]float64, 20)
		for i := range xs {
			xs[i] = r.Norm()
		}
		sort.Float64s(xs)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := Quantile(xs, q)
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBoxPlotRendering(t *testing.T) {
	s := Summarize([]float64{0.1, 0.2, 0.3, 0.4, 0.5})
	plot := s.BoxPlot(0, 1, 40)
	if len([]rune(plot)) != 40 {
		t.Fatalf("plot width %d, want 40", len(plot))
	}
	if !strings.Contains(plot, "M") || !strings.Contains(plot, "=") || !strings.Contains(plot, "|") {
		t.Fatalf("plot missing glyphs: %q", plot)
	}
}

func TestBoxPlotDegenerateRange(t *testing.T) {
	s := Summarize([]float64{5})
	// hi <= lo must not panic.
	_ = s.BoxPlot(5, 5, 20)
	_ = s.BoxPlot(0, 1, 2) // tiny width clamped
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean should be 0")
	}
	if Mean([]float64{1, 3}) != 2 {
		t.Fatal("mean wrong")
	}
}

func TestPctDrop(t *testing.T) {
	// Table I: 89.93 % original, 10.05 % locked → 79.88-point drop.
	if math.Abs(PctDrop(0.8993, 0.1005)-79.88) > 1e-9 {
		t.Fatalf("PctDrop(89.93, 10.05) = %v, want 79.88", PctDrop(0.8993, 0.1005))
	}
	if PctDrop(0.9, 0.9) != 0 {
		t.Fatal("no drop expected")
	}
}

func TestSummaryString(t *testing.T) {
	if Summarize([]float64{1, 2}).String() == "" {
		t.Fatal("empty String")
	}
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range xs {
		sum += v
	}
	return sum / float64(len(xs))
}
