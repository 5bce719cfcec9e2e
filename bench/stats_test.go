package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestSummarize(t *testing.T) {
	s := summarize([]float64{9, 1, 5, 3, 7}) // sorted 1 3 5 7 9
	if s.N != 5 || s.Median != 5 || s.Q1 != 3 || s.Q3 != 7 || s.Min != 1 || s.Max != 9 {
		t.Fatalf("summary %+v", s)
	}
	// deviations from 5: 4 2 0 2 4 -> median 2
	if s.MAD != 2 {
		t.Fatalf("MAD = %v, want 2", s.MAD)
	}
	// One wild sample moves neither the median nor the MAD.
	if o := summarize([]float64{1e6, 1, 5, 3, 7}); o.Median != 5 || o.MAD != 2 {
		t.Fatalf("outlier moved the summary: %+v", o)
	}
	if e := summarize(nil); e.N != 0 || e.Median != 0 {
		t.Fatalf("empty summary %+v", e)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("even-count median = %v", m)
	}
}

// TestIQRShareMatchesPython pins the spread against values computed with
// Python's statistics.quantiles(xs, n=4) and statistics.median.
func TestIQRShareMatchesPython(t *testing.T) {
	xs := []float64{1.00, 1.02, 0.98, 1.05, 0.97, 1.01, 1.03, 0.99, 1.10, 0.96}
	// quantiles -> [0.9775, 1.005, 1.035]; median 1.005
	if got, want := iqrShare(xs), (1.035-0.9775)/1.005; !near(got, want) {
		t.Fatalf("iqrShare = %v, want %v", got, want)
	}
	// Two samples: Python extrapolates, quantiles([1, 2], n=4) = [0.75, 1.5, 2.25].
	if got, want := iqrShare([]float64{1, 2}), 1.5/1.5; !near(got, want) {
		t.Fatalf("two-sample iqrShare = %v, want %v", got, want)
	}
	if iqrShare([]float64{3}) != 0 || iqrShare(nil) != 0 {
		t.Fatal("fewer than two samples have no spread")
	}
}

func TestTailPercentileRule(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	for _, tc := range []struct {
		n int
		p float64
	}{
		{9, 50},       // nothing has ten samples beyond it: the median
		{39, 50},      // p75 would leave 9.75
		{40, 75},      // p75 leaves exactly 10
		{100, 90},     // p90 leaves 10
		{199, 90},     // p95 would leave 9.95
		{200, 95},     // p95 leaves 10
		{600, 95},     // 30 beyond p95, 6 beyond p99
		{1000, 99},    // p99 leaves 10
		{10000, 99.9}, // p99.9 leaves 10
	} {
		p, v := tailPercentile(ramp(tc.n))
		if p != tc.p {
			t.Errorf("n=%d: percentile %v, want %v", tc.n, p, tc.p)
		}
		if want := tc.p / 100 * float64(tc.n-1); !near(v, want) {
			t.Errorf("n=%d: value %v, want %v", tc.n, v, want)
		}
	}
}

func TestCycleMeans(t *testing.T) {
	durs := []float64{1, 3, 2, 4, 10, 20, 7}
	if got := cycleMeans(durs, 2); len(got) != 3 || got[0] != 2 || got[1] != 3 || got[2] != 15 {
		t.Errorf("cycles of 2 over 7 ops: %v, want the three whole cycles [2 3 15]", got)
	}
	if got := cycleMeans(durs, 1); len(got) != len(durs) || got[4] != 10 {
		t.Errorf("cycles of 1: %v, want the ops themselves", got)
	}
	if got := cycleMeans(durs[:3], 8); len(got) != 1 || got[0] != 2 {
		t.Errorf("a run short of one cycle: %v, want the mean of what it has", got)
	}
	if got := cycleMeans(nil, 8); got != nil {
		t.Errorf("no ops: %v", got)
	}
}

func TestStolenShare(t *testing.T) {
	a := cpuTimes{ran: 100, stolen: 10, total: 400}
	b := cpuTimes{ran: 160, stolen: 50, total: 600}
	if got := stolenShare(a, b); !near(got, 0.4) {
		t.Errorf("60 ran, 40 stolen: share %v, want 0.4", got)
	}
	if got := stolenShare(a, a); got != 0 {
		t.Errorf("nothing between the readings: share %v", got)
	}
	if got := stolenShare(cpuTimes{}, cpuTimes{}); got != 0 {
		t.Errorf("no /proc/stat: share %v", got)
	}
}
