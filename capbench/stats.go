package main

import (
	"math"
	"sort"
)

// sample is a set of measurements of one metric; a metric reports the
// median and the quartiles, with the sample count.
type sample []float64

// summary is a sample reduced to what the report prints.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func (s sample) summary() summary {
	x := append([]float64(nil), s...)
	sort.Float64s(x)
	q1, q3 := quartiles(x)
	return summary{Median: median(x), Q1: q1, Q3: q3, N: len(x)}
}

// median of sorted x.
func median(x []float64) float64 {
	n := len(x)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return x[n/2]
	}
	return (x[n/2-1] + x[n/2]) / 2
}

// quartiles of sorted x by the exclusive method, as Python's
// statistics.quantiles(x, n=4) computes them.
func quartiles(x []float64) (q1, q3 float64) {
	n := len(x)
	if n < 2 {
		m := median(x)
		return m, m
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return q(1), q(3)
}

// percentile of sorted x by nearest rank; p in (0, 1].
func percentile(x []float64, p float64) float64 {
	if len(x) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(x)))) - 1
	if i < 0 {
		i = 0
	}
	return x[i]
}

// ratio is num/den, or 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
