package main

import (
	"math"
	"sort"
	"time"
)

// timeOf is the wall time of one call, in seconds.
func timeOf(f func()) float64 {
	t := time.Now()
	f()
	return time.Since(t).Seconds()
}

// medianOf is the median wall time of n calls, in seconds.
func medianOf(n int, f func()) float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = timeOf(f)
	}
	return median(xs)
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the q-quantile (0 <= q <= 1) of an ascending sample by
// linear interpolation between order statistics. An empty sample is 0.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// summary is how every timing in the ledger is reported: the median with
// its quartiles, extremes and sample count, plus the MAD as the
// outlier-proof spread.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	MAD    float64 `json:"mad"`
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := sorted(xs)
	med := quantile(s, 0.5)
	dev := make([]float64, len(s))
	for i, x := range s {
		dev[i] = math.Abs(x - med)
	}
	return summary{
		N: len(s), Median: med,
		Q1: quantile(s, 0.25), Q3: quantile(s, 0.75),
		Min: s[0], Max: s[len(s)-1],
		MAD: median(dev),
	}
}

// iqrShare is the run-to-run spread the contract judges a metric by: the
// distance between the first and third quartile as a share of the
// median, with the quartiles of Python's statistics.quantiles(n=4)
// (exclusive method: position (n+1)q on 1-based order statistics).
func iqrShare(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := sorted(xs)
	cut := func(i int) float64 { // i-th of the 4-quantile cut points
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
	med := quantile(s, 0.5)
	if med == 0 {
		return 0
	}
	return (cut(3) - cut(1)) / math.Abs(med)
}

// tailPercentiles are the candidates of the percentile rule, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// tailPercentile applies the reporting rule for a latency tail: the
// highest percentile that still has at least ten samples beyond it. With
// too few samples for any candidate it reports the median (p = 50).
func tailPercentile(xs []float64) (p, value float64) {
	s := sorted(xs)
	n := float64(len(s))
	for _, c := range tailPercentiles {
		if n*(100-c)/100 >= 10-1e-9 { // 10 within float roundoff
			return c, quantile(s, c/100)
		}
	}
	return 50, quantile(s, 0.5)
}
