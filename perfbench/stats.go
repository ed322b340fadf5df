package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty slice.
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

// tail is the latency tail the benchmark reports: the highest
// percentile that still has at least minBeyond samples above it.
type tail struct {
	Value      float64 `json:"value"`
	Percentile float64 `json:"percentile"`
	Samples    int     `json:"samples"`
	// OK is false when there are too few samples for any percentile to
	// have minBeyond samples beyond it; Value then holds the maximum.
	OK bool `json:"ok"`
}

// minBeyond is the number of samples that must lie above the reported
// tail percentile, so the tail is never a single outlier.
const minBeyond = 10

// tailOf returns the highest nearest-rank percentile of xs with at
// least minBeyond samples strictly above its rank: the value at
// ascending rank n-minBeyond-1 (0-based), which is the
// 100*(n-minBeyond)/n-th percentile.
func tailOf(xs []float64) tail {
	n := len(xs)
	t := tail{Samples: n}
	if n == 0 {
		return t
	}
	s := sortedCopy(xs)
	if n <= minBeyond {
		t.Value = s[n-1]
		t.Percentile = 100
		return t
	}
	t.Value = s[n-minBeyond-1]
	t.Percentile = 100 * float64(n-minBeyond) / float64(n)
	t.OK = true
	return t
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// finite maps NaN and ±Inf to 0 so every reported value marshals.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return finite(num / den)
}
