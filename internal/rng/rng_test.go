package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical outputs", same)
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(7)
	parent.Uint64()
	c1 := parent.Fork(1)
	c2 := parent.Fork(2)
	// Forking must not advance the parent.
	c1again := parent.Fork(1)
	if c1.Uint64() != c1again.Uint64() {
		t.Fatal("Fork is not deterministic at a fixed parent position")
	}
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("forks with different labels produced identical output")
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	for n := 1; n < 40; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Uniformity(t *testing.T) {
	r := New(11)
	const n = 200000
	var buckets [10]int
	for i := 0; i < n; i++ {
		buckets[int(r.Float64()*10)]++
	}
	for i, c := range buckets {
		got := float64(c) / n
		if math.Abs(got-0.1) > 0.01 {
			t.Fatalf("bucket %d frequency %v deviates from 0.1", i, got)
		}
	}
}

func TestNormMoments(t *testing.T) {
	r := New(13)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := New(seed).Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMix64Injective(t *testing.T) {
	seen := make(map[uint64]uint64)
	for i := uint64(0); i < 5000; i++ {
		h := Mix64(i)
		if prev, ok := seen[h]; ok {
			t.Fatalf("Mix64 collision: %d and %d -> %d", prev, i, h)
		}
		seen[h] = i
	}
}

func TestRangeBounds(t *testing.T) {
	r := New(21)
	for i := 0; i < 1000; i++ {
		v := r.Range(-3, 5)
		if v < -3 || v >= 5 {
			t.Fatalf("Range(-3,5) = %v out of bounds", v)
		}
	}
}

func TestSplitMix64Sequence(t *testing.T) {
	a := NewSplitMix64(12345)
	b := NewSplitMix64(12345)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		v := a.Next()
		if v != b.Next() {
			t.Fatal("SplitMix64 not deterministic")
		}
		if seen[v] {
			t.Fatalf("SplitMix64 repeated a value within 1000 draws")
		}
		seen[v] = true
	}
}

func TestBoolRoughlyFair(t *testing.T) {
	r := New(77)
	trues := 0
	for i := 0; i < 10000; i++ {
		if r.Bool() {
			trues++
		}
	}
	if trues < 4700 || trues > 5300 {
		t.Fatalf("Bool gave %d/10000 trues", trues)
	}
}

// SplitMix64 is the 64-bit generator from Steele et al.: the Mix64
// finalizer over a Weyl sequence, so TestSplitMix64Sequence drives the
// production Mix64 as a stream.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next 64-bit value in the stream.
func (s *SplitMix64) Next() uint64 {
	z := Mix64(s.state)
	s.state += 0x9e3779b97f4a7c15
	return z
}
