package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the fewest samples a reported percentile must leave
// above it; a percentile with fewer is decided by a handful of
// outliers and is refused.
const minBeyond = 10

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle of xs (the mean of the middle two for an
// even count). It is the statistic reported over a handful of samples,
// such as one value per process started.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the exact nearest-rank q-quantile of xs (no
// histogram buckets), or an error when fewer than minBeyond samples lie
// above it.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples leaves %d above it, want at least %d", q*100, n, beyond, minBeyond)
	}
	return sorted(xs)[rank-1], nil
}

// quartiles returns the first and third quartiles of xs by the
// exclusive method, the default of Python's statistics.quantiles, so
// the spreads printed here are those other tools compute from the same
// values. One sample is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// metric is one reported number with the samples it summarises.
type metric struct {
	Name  string  `json:"-"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
}

// summarise builds a metric whose value was derived from samples.
func summarise(name, unit string, value float64, samples []float64) metric {
	q1, q3 := quartiles(samples)
	return metric{Name: name, Unit: unit, Value: value, N: len(samples), Q1: q1, Q3: q3}
}

// single builds a metric that is one measurement, not a summary.
func single(name, unit string, value float64) metric {
	return metric{Name: name, Unit: unit, Value: value, N: 1, Q1: value, Q3: value}
}
