package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice. xs is not modified.
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

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// sorted: the smallest sample such that at least p% of the samples are at
// or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailLevels are the percentiles a tail metric may report, highest first.
var tailLevels = []float64{99.9, 99, 98, 95, 90, 75, 50}

// minBeyond is how many samples must lie above a percentile before it is
// reported: a tail read from fewer samples is one or two outliers.
const minBeyond = 10

// tail returns the highest percentile in tailLevels that has at least
// minBeyond samples strictly beyond its nearest rank, with its value. When
// only the median qualifies, or none does (fewer than 2×minBeyond samples:
// no tail can be read from them), it returns the median (the mean of the two
// middle samples for an even count), as level 50.
func tail(xs []float64) (level, value float64) {
	s := sortedCopy(xs)
	n := len(s)
	for _, p := range tailLevels[:len(tailLevels)-1] {
		rank := int(math.Ceil(p / 100 * float64(n)))
		if n-rank >= minBeyond {
			return p, s[rank-1]
		}
	}
	return 50, median(s)
}
