// Package rng provides small, fast, deterministic pseudo-random number
// generators used throughout the HPNN reproduction.
//
// Experiments in the paper (key generation, weight initialization, dataset
// synthesis, thief-dataset subsampling) must be exactly reproducible across
// runs and platforms, so we use an explicit-state generator (PCG32, seeded
// through the SplitMix64 finalizer) instead of the global math/rand source. Every consumer receives its
// own stream, and streams can be forked hierarchically: a fork derived from
// (parent state, label) is independent of the parent's subsequent output.
package rng

import "math"

// Mix64 applies the SplitMix64 finalizer to x. It is a high-quality
// stateless hash used for deriving child seeds and schedule permutations.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Rand is a PCG-XSH-RR 64/32 generator with convenience methods for the
// distributions the library needs. The zero value is not valid; use New.
type Rand struct {
	state uint64
	inc   uint64
	// spare Gaussian value for the Box-Muller pair.
	haveSpare bool
	spare     float64
}

// New returns a generator seeded from seed with the default stream.
func New(seed uint64) *Rand {
	return NewStream(seed, 0xda3e39cb94b95bdb)
}

// NewStream returns a generator with an explicit stream selector. Distinct
// stream values yield statistically independent sequences for the same seed.
func NewStream(seed, stream uint64) *Rand {
	r := &Rand{inc: (stream << 1) | 1}
	r.state = 0
	r.Uint32()
	r.state += seed
	r.Uint32()
	return r
}

// Fork derives an independent child generator from the parent state and a
// label. The parent's own sequence is not advanced, so forking is itself
// deterministic: Fork(label) called at the same parent position always
// yields the same child.
func (r *Rand) Fork(label uint64) *Rand {
	return NewStream(Mix64(r.state^label), Mix64(r.inc+label))
}

// Uint32 returns the next 32-bit value.
func (r *Rand) Uint32() uint32 {
	old := r.state
	r.state = old*6364136223846793005 + r.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
}

// Uint64 returns the next 64-bit value.
func (r *Rand) Uint64() uint64 {
	return uint64(r.Uint32())<<32 | uint64(r.Uint32())
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
// Lemire-style rejection keeps the distribution exactly uniform.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	bound := uint32(n)
	threshold := -bound % bound
	for {
		v := r.Uint32()
		if v >= threshold {
			return int((uint64(v) * uint64(bound)) >> 32)
		}
	}
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Range returns a uniform value in [lo, hi).
func (r *Rand) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Bool returns a fair coin flip.
func (r *Rand) Bool() bool {
	return r.Uint32()&1 == 1
}

// Norm returns a standard normal variate via Box-Muller.
func (r *Rand) Norm() float64 {
	if r.haveSpare {
		r.haveSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	m := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * m
	r.haveSpare = true
	return u * m
}

// NormScaled returns a normal variate with the given mean and stddev.
func (r *Rand) NormScaled(mean, std float64) float64 {
	return mean + std*r.Norm()
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(p)
	return p
}

// Shuffle permutes p in place with a Fisher-Yates shuffle.
func (r *Rand) Shuffle(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}
