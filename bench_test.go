package parbem

// Benchmark harness: one bench (or bench family) per paper table/figure,
// plus ablations of the design choices. The cmd/ tools regenerate the
// tables at paper scale; these benches use reduced sizes so
// `go test -bench=.` completes in minutes.

import (
	"context"
	"math"
	"slices"
	"testing"

	"parbem/internal/assembly"
	"parbem/internal/basis"
	"parbem/internal/costmodel"
	"parbem/internal/fmm"
	"parbem/internal/geom"
	"parbem/internal/kernel"
	"parbem/internal/linalg"
	"parbem/internal/op"
	"parbem/internal/pcbem"
	"parbem/internal/pfft"
	"parbem/internal/ratfit"
	"parbem/internal/tabulate"
)

// ---- Table 1: integration acceleration techniques ----

var table1Sink float64

func table1Probes() [][2]float64 {
	var probes [][2]float64
	for i := 0; len(probes) < 128; i++ {
		x := -2 + 5*float64((i*37)%101)/101.0
		y := -2 + 5*float64((i*53)%103)/103.0
		if x > -0.2 && x < 1.2 && y > -0.2 && y < 1.2 {
			continue
		}
		probes = append(probes, [2]float64{x, y})
	}
	return probes
}

// eq13 is the paper's original 2-D expression (Eq. 13) for the unit square
// and an in-plane point, as printed: the four-corner difference of
// X*ln(Y+r) + Y*ln(X+r), eight standard-library logarithms (the same
// transcription as cmd/benchtables).
func eq13(x, y float64) float64 {
	f := func(X, Y float64) float64 {
		r := math.Hypot(X, Y)
		var s float64
		if X != 0 {
			s += X * math.Log(Y+r)
		}
		if Y != 0 {
			s += Y * math.Log(X+r)
		}
		return s
	}
	return f(x, y) - f(x-1, y) - f(x, y-1) + f(x-1, y-1)
}

func BenchmarkTable1_Technique0_Analytic(b *testing.B) {
	probes := table1Probes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := probes[i%len(probes)]
		table1Sink += eq13(p[0], p[1])
	}
}

func BenchmarkTable1_Technique1_DirectTabulation(b *testing.B) {
	tab := tabulate.Build([]tabulate.Dim{{Min: -2, Max: 3, N: 320}, {Min: -2, Max: 3, N: 320}},
		func(q []float64) float64 {
			return kernel.RectPotential(0, 1, 0, 1, q[0], q[1], 0)
		})
	probes := table1Probes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := probes[i%len(probes)]
		table1Sink += tab.Eval2(p[0], p[1])
	}
}

func BenchmarkTable1_Technique2_IndefiniteTabulation(b *testing.B) {
	tab := tabulate.Build([]tabulate.Dim{{Min: -3, Max: 3, N: 340}, {Min: -3, Max: 3, N: 340}},
		func(q []float64) float64 {
			return kernel.F2(q[0], q[1], 0)
		})
	probes := table1Probes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := probes[i%len(probes)]
		table1Sink += tab.Eval2(p[0], p[1]) - tab.Eval2(p[0]-1, p[1]) -
			tab.Eval2(p[0], p[1]-1) + tab.Eval2(p[0]-1, p[1]-1)
	}
}

func BenchmarkTable1_Technique3_TabulatedRoutines(b *testing.B) {
	probes := table1Probes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := probes[i%len(probes)]
		table1Sink += kernel.RectPotential(0, 1, 0, 1, p[0], p[1], 0)
	}
}

func BenchmarkTable1_Technique4_RationalFitting(b *testing.B) {
	grid, err := ratfit.FitGrid(func(q []float64) float64 {
		return kernel.RectPotential(0, 1, 0, 1, q[0], q[1], 0)
	}, []float64{-2, -2}, []float64{3, 3}, []int{5, 5}, 200, 3, 3)
	if err != nil {
		b.Fatal(err)
	}
	probes := table1Probes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := probes[i%len(probes)]
		table1Sink += grid.Eval(p[0], p[1])
	}
}

// ---- Table 2: instantiable vs FASTCAP-analog on the interconnect ----

func BenchmarkTable2_FastCapAnalog(b *testing.B) {
	st := NewInterconnect().Build()
	for i := 0; i < b.N; i++ {
		if _, err := ExtractFastCapLike(st, 0.5e-6, FastCapOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2_Instantiable(b *testing.B) {
	st := NewInterconnect().Build()
	for i := 0; i < b.N; i++ {
		if _, err := Extract(st, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Table 3: bus parallel scalability (reduced to 8x8 for bench time;
// cmd/benchtables -table 3 runs the paper's 24x24) ----

func benchBus(b *testing.B, backend Backend, workers int) {
	b.Helper()
	st := NewBus(8, 8).Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Extract(st, Options{Backend: backend, Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3_Serial(b *testing.B)        { benchBus(b, Serial, 1) }
func BenchmarkTable3_Shared2(b *testing.B)       { benchBus(b, SharedMem, 2) }
func BenchmarkTable3_Shared4(b *testing.B)       { benchBus(b, SharedMem, 4) }
func BenchmarkTable3_Distributed2(b *testing.B)  { benchBus(b, Distributed, 2) }
func BenchmarkTable3_Distributed4(b *testing.B)  { benchBus(b, Distributed, 4) }
func BenchmarkTable3_Distributed8(b *testing.B)  { benchBus(b, Distributed, 8) }
func BenchmarkTable3_Distributed10(b *testing.B) { benchBus(b, Distributed, 10) }

// ---- Figure 8: rival parallel efficiency (reduced problem) ----

// benchRival times the pipeline's GMRES solve over a rival operator
// built outside the loop (cmd/benchfig8 measures the same thing).
func benchRival(b *testing.B, build func(panels []geom.Panel) op.Operator) {
	b.Helper()
	prob, err := pcbem.NewProblem(NewBus(2, 2).Build(), 0.5e-6)
	if err != nil {
		b.Fatal(err)
	}
	a := build(prob.Panels)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl, err := op.NewWithOperator(prob.Spec(), a, op.Options{Tol: 1e-4})
		if err == nil {
			_, err = pl.ExtractWarmCtx(context.Background(), nil)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func benchRivalFMM(b *testing.B, workers int) {
	benchRival(b, func(panels []geom.Panel) op.Operator {
		return fmm.NewOperator(panels, fmm.Options{Workers: workers})
	})
}

func BenchmarkFig8_FMM_Workers1(b *testing.B) { benchRivalFMM(b, 1) }
func BenchmarkFig8_FMM_Workers4(b *testing.B) { benchRivalFMM(b, 4) }
func BenchmarkFig8_FMM_Workers8(b *testing.B) { benchRivalFMM(b, 8) }

func benchRivalPFFT(b *testing.B, workers int) {
	benchRival(b, func(panels []geom.Panel) op.Operator {
		return pfft.NewOperator(panels, pfft.Options{Workers: workers})
	})
}

func BenchmarkFig8_PFFT_Workers1(b *testing.B) { benchRivalPFFT(b, 1) }
func BenchmarkFig8_PFFT_Workers4(b *testing.B) { benchRivalPFFT(b, 4) }
func BenchmarkFig8_PFFT_Workers8(b *testing.B) { benchRivalPFFT(b, 8) }

func BenchmarkFig8_PublishedCurves(b *testing.B) {
	// Evaluating the calibrated reference models (trivial; included so
	// every figure has a bench target).
	var s float64
	for i := 0; i < b.N; i++ {
		for d := 1; d <= 10; d++ {
			s += costmodel.ParallelFMM.Efficiency(d) + costmodel.ParallelPFFT.Efficiency(d)
		}
	}
	table1Sink = s
}

// ---- Figure 2: template extraction ----

func BenchmarkFig2_CrossingProfileExtraction(b *testing.B) {
	sp := NewCrossingPair()
	sp.Length = 6e-6
	for i := 0; i < b.N; i++ {
		if _, err := CrossingProfile(sp, 0.5e-6); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablations (design choices) ----

// BenchmarkAblationApproxDistance quantifies the approximation-distance
// dimension reduction (paper Section 4.1).
func BenchmarkAblationApproxDistance_On(b *testing.B) {
	st := NewBus(4, 4).Build()
	set := basis.Build(st, basis.BuilderOptions{})
	in := assembly.NewIntegrator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		assembly.FillSerial(set, in)
	}
}

func BenchmarkAblationApproxDistance_Off(b *testing.B) {
	st := NewBus(4, 4).Build()
	set := basis.Build(st, basis.BuilderOptions{})
	in := assembly.NewIntegrator()
	in.Cfg.DisableApprox = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		assembly.FillSerial(set, in)
	}
}

// BenchmarkAblationMaterializePt compares direct accumulation into P
// against materializing the full M x M template matrix first (the memory
// optimization of paper Section 3).
func BenchmarkAblationMaterializePt_Direct(b *testing.B) {
	st := NewBus(4, 4).Build()
	set := basis.Build(st, basis.BuilderOptions{})
	in := assembly.NewIntegrator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		assembly.FillSerial(set, in)
	}
}

func BenchmarkAblationMaterializePt_Materialized(b *testing.B) {
	st := NewBus(4, 4).Build()
	set := basis.Build(st, basis.BuilderOptions{})
	in := assembly.NewIntegrator()
	m := set.M()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt := linalg.NewDense(m, m)
		for k := int64(0); k < assembly.NumPairs(m); k++ {
			ti, tj := assembly.KToIJ(k)
			v := in.TemplatePair(&set.Templates[ti], &set.Templates[tj])
			pt.Set(ti, tj, v)
			pt.Set(tj, ti, v)
		}
		// Condense.
		p := linalg.NewDense(set.N(), set.N())
		for ti := 0; ti < m; ti++ {
			for tj := 0; tj < m; tj++ {
				p.Add(set.Owner[ti], set.Owner[tj], pt.At(ti, tj))
			}
		}
	}
}

// BenchmarkAblationLDLT compares the direct solve's packed LDLᵀ
// against GMRES on the (small, dense) instantiable system.
func BenchmarkAblationLDLT_Direct(b *testing.B) {
	st := NewBus(6, 6).Build()
	set := basis.Build(st, basis.BuilderOptions{})
	in := assembly.NewIntegrator()
	P := assembly.FillSerial(set, in)
	linalg.Scal(1/(kernel.FourPi*kernel.Eps0), P.Data)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := linalg.FactorSym(&linalg.Sym{N: P.N, Data: slices.Clone(P.Data)})
		if err != nil {
			b.Fatal(err)
		}
		x := make([]float64, P.N)
		for j := range x {
			x[j] = 1e-12
		}
		f.SolveVec(x)
	}
}

func BenchmarkAblationLDLT_GMRES(b *testing.B) {
	st := NewBus(6, 6).Build()
	set := basis.Build(st, basis.BuilderOptions{})
	in := assembly.NewIntegrator()
	P := assembly.FillSerial(set, in)
	linalg.Scal(1/(kernel.FourPi*kernel.Eps0), P.Data)
	rhs := make([]float64, P.N)
	for j := range rhs {
		rhs[j] = 1e-12
	}
	a := op.NewDenseOperator(P, nil, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := make([]float64, P.N)
		if _, err := linalg.GMRES(a, x, rhs,
			linalg.GMRESOptions{Tol: 1e-8}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Distributed-memory overhead: four ranks, each filling private rows ----

func BenchmarkMPI_IdealNetwork(b *testing.B) {
	st := NewBus(4, 4).Build()
	for i := 0; i < b.N; i++ {
		if _, err := Extract(st, Options{Backend: Distributed, Workers: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// Guard: geometry generation should stay cheap.
func BenchmarkBasisGeneration24x24(b *testing.B) {
	st := geom.DefaultBus(24, 24).Build()
	for i := 0; i < b.N; i++ {
		set := basis.Build(st, basis.BuilderOptions{})
		if err := set.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}
