package main

import (
	"math"
	"sort"
)

// summary is how a metric's repetitions are written: the value of a run is
// the median, and the quartiles say how far the repetitions disagreed.
type summary struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of xs; 0 for an empty slice.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), because that
// is the rule the acceptance check applies to ten runs of this harness.
// Fewer than two values have no spread: both quartiles are the value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / m)
}

func summarize(xs []float64, unit string) summary {
	q1, q3 := quartiles(xs)
	return summary{Value: median(xs), Unit: unit, Q1: q1, Q3: q3, N: len(xs)}
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	// The epsilon keeps p*n/100 from landing a hair above a whole rank.
	rank := int(math.Ceil(p*float64(len(s))/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// tailSamples is how many samples must lie beyond a percentile before it
// is reported: fewer and the "percentile" is one or two outliers.
const tailSamples = 10

// supported reports whether n samples leave at least tailSamples beyond
// the p-th percentile.
func supported(n int, p float64) bool {
	// 100-p is inexact for p like 99.9; the epsilon forgives that.
	return float64(n)*(100-p)/100 >= tailSamples-1e-6
}

// p95OrMedian is the latency_ms_p95 rule: the 95th percentile when the run
// has the 200 samples that puts ten beyond it, else the median, so the
// metric never reports a handful of outliers as a percentile.
func p95OrMedian(xs []float64) float64 {
	if supported(len(xs), 95) {
		return percentile(xs, 95)
	}
	return median(xs)
}
