package main

import (
	"math"
	"sort"
)

// median returns the middle value of v (mean of the two middle values for
// an even count); 0 for an empty slice.
func median(v []float64) float64 {
	n := len(v)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of v as Python's
// statistics.quantiles(v, n=4) gives them (the exclusive method), which is
// what the driver's spread rule uses. It needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 { // quartile i of 4
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spreadShare is the driver's steadiness statistic: the distance between
// the quartiles of v as a share of its median.
func spreadShare(v []float64) float64 {
	m := median(v)
	if len(v) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(m)
}

// rangeShare is the distance between the least and the greatest of v as a
// share of its median.
func rangeShare(v []float64) float64 {
	m := median(v)
	if len(v) < 2 || m == 0 {
		return 0
	}
	lo, hi := v[0], v[0]
	for _, x := range v {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return (hi - lo) / math.Abs(m)
}

// resolvedPercentile returns the nearest-rank percentile p of v, and
// whether at least ten samples lie beyond it; an unresolved percentile is
// not a number worth reporting.
func resolvedPercentile(v []float64, p float64) (value float64, ok bool) {
	n := len(v)
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based
	if rank < 1 || n-rank < 10 {
		return 0, false
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[rank-1], true
}

// abbaRatio folds a sequence of operation costs into the median of
// (B₁+B₂)/(A₁+A₂) over every four consecutive operations that were taken in
// the order A B B A or B A A B, where b marks the B operations. Any linear
// drift of the host across the four hits both sides equally and cancels.
// Quads run back to back as ABBA ABBA…, so the operations straddling two of
// them (BAAB) count as well: 2n−1 quads from n.
func abbaRatio(cost []float64, b []bool) (ratio float64, quads int) {
	var r []float64
	for i := 0; i+4 <= len(cost); i++ {
		outer, inner := cost[i]+cost[i+3], cost[i+1]+cost[i+2]
		switch {
		case outer <= 0 || inner <= 0:
		case !b[i] && b[i+1] && b[i+2] && !b[i+3]:
			r = append(r, inner/outer)
		case b[i] && !b[i+1] && !b[i+2] && b[i+3]:
			r = append(r, outer/inner)
		}
	}
	return median(r), len(r)
}
