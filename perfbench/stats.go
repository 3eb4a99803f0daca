package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a p99 over fewer than 1,000 samples is an anecdote, not a tail.
const minBeyond = 10

// Percentile returns the nearest-rank q-quantile of xs (which it sorts
// in place) and fails when fewer than minBeyond samples lie beyond it.
func Percentile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("percentile p%g of no samples", 100*q)
	}
	sort.Float64s(xs)
	r := min(max(int(math.Ceil(q*float64(len(xs)))), 1), len(xs)) // nearest rank, 1-based
	if beyond := len(xs) - r; beyond < minBeyond {
		return 0, fmt.Errorf("percentile p%g of %d samples has %d beyond it, need %d", 100*q, len(xs), beyond, minBeyond)
	}
	return xs[r-1], nil
}

// Median returns the median of xs (which it sorts in place); the mean
// of the middle pair for even counts. Medians of a handful of repeats
// carry no tail claim, so no sample floor applies.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
