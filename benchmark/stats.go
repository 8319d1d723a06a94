package main

import (
	"math"
	"sort"
)

// ratio is a/b, and 0 when b is 0: a workload a metric does not apply to
// reports 0 for it, never NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank q-th percentile (0 < q <= 100) of sorted.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q / 100 * float64(len(sorted))))
	rank = max(1, min(rank, len(sorted)))
	return sorted[rank-1]
}

// tailPercentile is the highest of the usual percentiles, up to most, that
// still has at least ten samples beyond it: a tail estimated from fewer is
// noise. 1000 samples support p99, 200 support p95.
func tailPercentile(n int, most float64) float64 {
	for _, q := range []float64{99, 95, 90} {
		if q <= most && float64(n)*(100-q)/100 >= 10 {
			return q
		}
	}
	return 50
}

// quartiles returns what Python's statistics.quantiles(v, n=4) returns (the
// default "exclusive" method), so -compare computes spreads the way the
// acceptance check does. It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		j = max(1, min(j, m-1))
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}
