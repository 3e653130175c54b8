package main

import "math"

// capStep records one probe of the capacity search.
type capStep struct {
	rate float64
	pass bool
}

// searchCapacity finds the highest rate in [lo, hi] at which probe passes,
// by bisecting the bracket in log space for a fixed number of steps. lo is
// taken to pass and hi to fail without being probed, so the search always
// costs exactly steps probes and resolves the capacity to within a factor
// (hi/lo)^(1/2^steps). It returns the highest passing rate seen (lo when
// none passed) and every probe in order.
func searchCapacity(lo, hi float64, steps int, probe func(rate float64) bool) (float64, []capStep) {
	var trail []capStep
	for i := 0; i < steps; i++ {
		mid := math.Sqrt(lo * hi)
		pass := probe(mid)
		trail = append(trail, capStep{rate: mid, pass: pass})
		if pass {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, trail
}
