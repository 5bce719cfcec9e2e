package plan

import (
	"testing"

	"parbem/internal/fmm"
	"parbem/internal/op"
)

// BenchmarkSweepIncremental measures a 16-point crossing h-sweep
// through one plan on the fmm backend. One benchmark iteration is the
// whole sweep; cold_ms/pt is the from-scratch first point, warm_ms/pt
// the average of the 15 delta-reused points — their ratio is the
// per-point setup amortization the plan layer exists for. applies/op is
// the sweep's operator applications: iterations, seeds and residual
// checks, the count the solve stage's time is a multiple of.
func BenchmarkSweepIncremental(b *testing.B) {
	const edge = 0.25e-6
	const points = 16
	hs := make([]float64, points)
	for i := range hs {
		hs[i] = 0.3e-6 + 0.05e-6*float64(i)
	}
	opt := Options{MaxEdge: edge, Pipeline: op.Options{
		Backend: op.BackendFMM, Tol: 1e-8, FMM: &fmm.Options{Workers: 1},
	}}
	b.ResetTimer()
	var cold, warm float64
	applies := 0
	for n := 0; n < b.N; n++ {
		p, err := New(opt)
		if err != nil {
			b.Fatal(err)
		}
		for i, h := range hs {
			res, err := p.Extract(crossingAt(h))
			if err != nil {
				b.Fatal(err)
			}
			applies += res.Applies
			ms := res.Total.Seconds() * 1e3
			if i == 0 {
				cold += ms
			} else {
				warm += ms
			}
		}
	}
	b.ReportMetric(float64(applies)/float64(b.N), "applies/op")
	b.ReportMetric(cold/float64(b.N), "cold_ms/pt")
	b.ReportMetric(warm/float64(b.N*(points-1)), "warm_ms/pt")
}
