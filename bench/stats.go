package main

import (
	"math"
	"sort"
)

// nearestRank returns the nearest-rank q-quantile (0 < q <= 1) of sorted
// samples: the value at rank ceil(q*n). Failed requests enter the samples
// as +Inf, so they sort last and count as missing every latency limit.
// Empty input yields NaN.
func nearestRank(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// percentileLadder lists the percentiles a run may report as its highest
// supported one.
var percentileLadder = []float64{50, 90, 95, 99, 99.9, 99.99, 99.999}

// supportedPercentile returns the highest ladder percentile that has at
// least ten samples beyond it among n samples, or 0 when even the median
// has fewer.
func supportedPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// quartiles returns the first quartile, median and third quartile of
// values, computed like Python's statistics.quantiles(values, n=4) (the
// default "exclusive" method). With fewer than two values every quartile
// is the single value (NaN for none).
func quartiles(values []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	ld := len(d)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// median returns the median of values (NaN for none).
func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}
