package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// tail estimate resting on fewer is mostly noise, which is what made an
// earlier p95 unusable.
const minBeyond = 10

// nearestRank returns the q-quantile (0 < q <= 1) of xs by the
// nearest-rank rule: the smallest sample with at least q·n samples at or
// below it. It returns NaN for an empty slice and does not modify xs.
func nearestRank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := int(math.Ceil(q*float64(len(s)))) - 1
	if r < 0 {
		r = 0
	}
	if r >= len(s) {
		r = len(s) - 1
	}
	return s[r]
}

// tailSupported reports whether n samples hold at least minBeyond samples
// beyond the q-quantile, so that the quantile may be reported.
func tailSupported(n int, q float64) bool {
	return float64(n)*(1-q) >= minBeyond-1e-9
}

// median is nearestRank at one half.
func median(xs []float64) float64 { return nearestRank(xs, 0.5) }

// mean returns the arithmetic mean of xs, NaN when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quartiles returns the first quartile, median and third quartile of xs by
// the same "exclusive" method as Python's statistics.quantiles(xs, n=4),
// which is how run-to-run spread is judged. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		// Python's exclusive method: position k·(n+1)/4 (1-based), with
		// the bracketing pair clamped to the sample range.
		m := n + 1
		j := k * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}
