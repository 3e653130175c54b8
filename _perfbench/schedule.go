package main

import (
	"math"
	"time"

	"hpnn/internal/rng"
)

// arrival is one scheduled request of an open-loop phase: when it is due
// (offset from the phase start), which input sample it carries, and which
// tenant it addresses.
type arrival struct {
	due    time.Duration
	sample int
	tenant int
}

// openSchedule derives a Poisson arrival schedule at rate requests/second
// over dur from seed alone: exponential gaps, a uniformly drawn input
// sample out of samples, and a tenant drawn with probability mix[t] (the
// weights sum to 1). The same arguments always yield the same schedule.
func openSchedule(seed uint64, rate float64, dur time.Duration, samples int, mix []float64) []arrival {
	r := rng.New(seed)
	var out []arrival
	t := 0.0
	end := dur.Seconds()
	for {
		// 1-U is in (0, 1], so the logarithm is finite.
		t += -math.Log(1-r.Float64()) / rate
		if t >= end {
			return out
		}
		out = append(out, arrival{
			due:    time.Duration(t * float64(time.Second)),
			sample: r.Intn(samples),
			tenant: pick(mix, r.Float64()),
		})
	}
}

// pick maps u in [0, 1) to the index whose cumulative weight first exceeds
// it; rounding slack at the top lands on the last index.
func pick(mix []float64, u float64) int {
	acc := 0.0
	for i, w := range mix {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(mix) - 1
}

// phaseSeed derives an independent schedule seed for one phase of a run,
// so phases (and capacity steps) never replay each other's arrivals.
func phaseSeed(seed uint64, phase int) uint64 {
	return rng.Mix64(seed*0x9e3779b97f4a7c15 + uint64(phase) + 1)
}
