package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail read off fewer samples than this is one or two outliers, not
// a percentile.
const minBeyond = 10

// quantile returns the p-quantile (0 < p < 1) of sorted by nearest rank:
// the smallest sample with at least a p share of samples at or below
// it. It refuses when fewer than minBeyond samples lie beyond that rank.
func quantile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	if !(p > 0 && p < 1) {
		return 0, fmt.Errorf("quantile %v outside (0, 1)", p)
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", 100*p, n, n-rank, minBeyond)
	}
	return sorted[rank-1], nil
}

// minSamples is the smallest sample count for which quantile(p) answers.
func minSamples(p float64) int {
	n := minBeyond + 1
	for int(float64(n)-math.Ceil(p*float64(n))) < minBeyond {
		n++
	}
	return n
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle of xs (the mean of the two middle samples for an
// even count); it needs no tail, so any non-empty sample set answers.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio divides, answering 0 when there is nothing to divide by (a layer
// the workload never reached).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
