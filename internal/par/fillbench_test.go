package par

// Fill benchmarks: the shared-memory system setup at fixed worker counts,
// used for allocation tracking (the integration hot path must stay
// allocation-free) and for profiling the parallel fill. Beside the time
// they report what it is made of: the classes a fill integrates, which is
// a count that repeats exactly, and the time per template pair.

import (
	"testing"

	"parbem/internal/assembly"
	"parbem/internal/basis"
	"parbem/internal/geom"
)

func benchFillWorkers(b *testing.B, workers int) {
	b.Helper()
	st := geom.DefaultBus(8, 8).Build()
	set := basis.Build(st, basis.DefaultBuilderOptions())
	in := assembly.NewIntegrator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Fill(set, in, Options{Workers: workers})
	}
	b.ReportMetric(float64(in.FillStats().ClassesIntegrated)/float64(b.N), "classes/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(assembly.NumPairs(set.M())), "ns/pair")
}

func BenchmarkFill1(b *testing.B)  { benchFillWorkers(b, 1) }
func BenchmarkFill10(b *testing.B) { benchFillWorkers(b, 10) }
