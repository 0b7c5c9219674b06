package main

import (
	"math"
	"sort"
	"time"
)

// rank is the 1-based nearest rank of the p-th percentile of n samples.
// p·n/100 is computed in that order, and a sliver is shaved before the
// ceiling, so that p90 of 100 samples is rank 90, not 91 through
// rounding in p/100.
func rank(n int, p float64) int {
	return min(max(int(math.Ceil(p*float64(n)/100-1e-9)), 1), n)
}

// beyond is how many of n samples lie above the p-th percentile.
func beyond(n int, p float64) int { return n - rank(n, p) }

// percentile is the nearest-rank p-th percentile of xs: the smallest
// sample with at least p% of the samples at or below it (0 for an empty
// slice); xs is not modified. Nearest rank keeps a percentile on one
// measured op. Interpolating would blend two catalog experiments of very
// different lengths wherever p falls between their clusters.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

func medianF(xs []float64) float64 { return percentile(xs, 50) }

func median(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(medianF(xs))
}
