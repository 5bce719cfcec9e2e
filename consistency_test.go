package parbem

import (
	"fmt"
	"math/rand"
	"testing"
)

// consistencyTol is the cross-backend agreement bound. The backends run
// the same integration code over the same k-range; they differ only in
// partitioning, which perturbs floating-point accumulation order by at
// most a few ulps — far below 1e-10 relative.
const consistencyTol = 1e-10

// randomStructures builds a deterministic set of seeded-random bus and
// crossing structures exercising different template mixes.
func randomStructures(seed int64, n int) []*Structure {
	rng := rand.New(rand.NewSource(seed))
	jit := func(base float64) float64 { return base * (0.8 + 0.4*rng.Float64()) }
	var out []*Structure
	for i := 0; len(out) < n; i++ {
		if i%2 == 0 {
			sp := NewBus(2+rng.Intn(2), 2+rng.Intn(2))
			sp.Width = jit(sp.Width)
			sp.Thickness = jit(sp.Thickness)
			sp.Pitch = jit(sp.Pitch)
			sp.H = jit(sp.H)
			sp.Margin = jit(sp.Margin)
			out = append(out, sp.Build())
		} else {
			sp := NewCrossingPair()
			sp.Width = jit(sp.Width)
			sp.Thickness = jit(sp.Thickness)
			sp.Length = jit(sp.Length)
			sp.H = jit(sp.H)
			out = append(out, sp.Build())
		}
	}
	return out
}

// TestPipelineBackendConsistency asserts that every operator backend of
// the unified pipeline — dense direct, dense iterative, multipole
// (preconditioned and unpreconditioned) and precorrected-FFT — agrees on
// the bus corpus to 1e-3 relative (the operators share the exact
// Galerkin near field; they differ only in far-field approximation, well
// inside the bound at the conservative settings used here).
func TestPipelineBackendConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("several full piecewise-constant solves")
	}
	st := NewBus(3, 3).Build()
	const edge = 1e-6

	ref, err := ExtractPipeline(st, edge, PipelineOptions{Backend: BackendDense, Direct: true})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Backend != BackendDense || ref.Iterations != 0 {
		t.Fatalf("reference not a direct dense solve: backend %v, %d iterations",
			ref.Backend, ref.Iterations)
	}

	backends := []struct {
		name string
		opt  PipelineOptions
	}{
		{"dense-iterative", PipelineOptions{Backend: BackendDense, Tol: 1e-6}},
		{"fmm-blockjacobi", PipelineOptions{Backend: BackendFMM, Tol: 1e-6,
			Precond: PrecondBlockJacobi, FMM: &FastCapOptions{Theta: 0.35}}},
		{"fmm-unpreconditioned", PipelineOptions{Backend: BackendFMM, Tol: 1e-6,
			Precond: PrecondNone, FMM: &FastCapOptions{Theta: 0.35}}},
		{"fmm-jacobi", PipelineOptions{Backend: BackendFMM, Tol: 1e-6,
			Precond: PrecondJacobi, FMM: &FastCapOptions{Theta: 0.35}}},
		{"pfft", PipelineOptions{Backend: BackendPFFT, Tol: 1e-6,
			PFFT: &PFFTOptions{NearRadius: 8}}},
		{"auto", PipelineOptions{Backend: BackendAuto, Tol: 1e-6}},
	}
	for _, be := range backends {
		res, err := ExtractPipeline(st, edge, be.opt)
		if err != nil {
			t.Fatalf("%s: %v", be.name, err)
		}
		if res.C.Rows != st.NumConductors() {
			t.Fatalf("%s: C is %dx%d for %d conductors",
				be.name, res.C.Rows, res.C.Cols, st.NumConductors())
		}
		if e := CapError(res.C, ref.C); e > 1e-3 {
			t.Errorf("%s deviates from dense direct by %.3g (tol 1e-3)", be.name, e)
		}
		if res.Iterations == 0 {
			t.Errorf("%s: no Krylov iterations reported", be.name)
		}
	}
}

// TestPipelinePrecisionConsistency asserts that forcing the mixed
// (float32 operator + float64 iterative refinement) matvec changes the
// accelerated backends' capacitance matrices by at most 5e-3 relative
// against their own fp64 solves — the refinement loop converges the
// outer residual in float64, so the float32 storage must not leak into
// the answer beyond the solver tolerance. The warm ApplyMixed paths are
// separately pinned allocation-free by the AllocsPerRun guards in the
// fmm and pfft package tests.
func TestPipelinePrecisionConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("several full piecewise-constant solves")
	}
	st := NewBus(3, 3).Build()
	const edge = 1e-6

	for _, backend := range []PipelineOptions{
		{Backend: BackendFMM, Tol: 1e-6},
		{Backend: BackendPFFT, Tol: 1e-6},
	} {
		opt := backend
		opt.Precision = PrecisionFP64
		ref, err := ExtractPipeline(st, edge, opt)
		if err != nil {
			t.Fatalf("%v fp64: %v", opt.Backend, err)
		}
		if ref.Precision != PrecisionFP64 {
			t.Fatalf("%v: forced fp64 resolved to %v", opt.Backend, ref.Precision)
		}
		opt.Precision = PrecisionMixed
		mix, err := ExtractPipeline(st, edge, opt)
		if err != nil {
			t.Fatalf("%v mixed: %v", opt.Backend, err)
		}
		if mix.Precision != PrecisionMixed {
			t.Fatalf("%v: forced mixed resolved to %v", opt.Backend, mix.Precision)
		}
		if e := CapError(mix.C, ref.C); e > 5e-3 {
			t.Errorf("%v: mixed deviates from fp64 by %.3g (tol 5e-3)", opt.Backend, e)
		}
	}
}

// TestBackendConsistency asserts that the Serial, SharedMem and
// Distributed backends and the batch Engine produce capacitance matrices
// agreeing within 1e-10 relative error on seeded-random structures.
func TestBackendConsistency(t *testing.T) {
	structures := randomStructures(20260727, 4)

	eng := NewEngine(EngineOptions{Workers: 3})
	defer eng.Close()

	for si, st := range structures {
		st := st
		t.Run(fmt.Sprintf("structure%d_%s", si, st.Name), func(t *testing.T) {
			ref, err := Extract(st, Options{Backend: Serial})
			if err != nil {
				t.Fatal(err)
			}

			backends := []struct {
				name string
				run  func() (*Result, error)
			}{
				{"shared-4", func() (*Result, error) {
					return Extract(st, Options{Backend: SharedMem, Workers: 4})
				}},
				{"distributed-3", func() (*Result, error) {
					return Extract(st, Options{Backend: Distributed, Workers: 3})
				}},
				// Twice through the engine: the second run is served
				// from the basis and pair-integral caches and must not
				// drift either.
				{"engine-cold", func() (*Result, error) { return eng.Extract(st) }},
				{"engine-cached", func() (*Result, error) { return eng.Extract(st) }},
			}
			for _, be := range backends {
				res, err := be.run()
				if err != nil {
					t.Fatalf("%s: %v", be.name, err)
				}
				if res.C.Rows != st.NumConductors() {
					t.Fatalf("%s: C is %dx%d for %d conductors",
						be.name, res.C.Rows, res.C.Cols, st.NumConductors())
				}
				if e := CapError(res.C, ref.C); e > consistencyTol {
					t.Errorf("%s deviates from serial by %.3g (tol %g)",
						be.name, e, consistencyTol)
				}
			}
		})
	}
}
