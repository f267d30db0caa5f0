package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile: a
// percentile resting on fewer outliers than this is one sample's noise.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 100) of xs by nearest
// rank. It refuses, with an error naming n, when fewer than minBeyond
// samples lie above the rank: p50 needs n >= 20, p90 needs n >= 100.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile p%g: want 0 < p < 100", p)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of n=%d has %d samples beyond it; need %d", p, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the middle of xs (mean of the two middle values for even n),
// for small repeated measurements such as set-up probes; zero when empty.
// Unlike percentile it makes no tail claim, so it needs no minimum n.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
