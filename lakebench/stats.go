package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the middle value of xs (mean of the two middle values for
// an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mad returns the median absolute deviation of xs around its median: the
// spread figure printed beside every median, robust to the one repetition
// in three a noisy neighbour slows down.
func mad(xs []float64) float64 {
	m := median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - m)
	}
	return median(dev)
}

// percentile returns the q-quantile of an ascending slice by nearest rank
// (the ceil(q·n)-th smallest value), or 0 for an empty slice.
func percentile(asc []float64, q float64) float64 {
	n := len(asc)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return asc[rank-1]
}

// tailPercentile returns the want-quantile of an ascending slice when at
// least ten samples lie beyond it, and otherwise the highest quantile that
// still has ten samples beyond it (never lower than the median). It also
// returns the quantile actually used, so the report can say what "p90"
// meant on a short run.
func tailPercentile(asc []float64, want float64) (value, used float64) {
	n := len(asc)
	if n == 0 {
		return 0, 0
	}
	const beyond = 10
	rank := int(math.Ceil(want * float64(n)))
	if n-rank >= beyond {
		return asc[rank-1], want
	}
	rank = n - beyond
	if mid := (n + 1) / 2; rank < mid {
		rank = mid
	}
	return asc[rank-1], float64(rank) / float64(n)
}
