package plan

import (
	"math"
	"testing"

	"parbem/internal/fmm"
	"parbem/internal/geom"
	"parbem/internal/linalg"
	"parbem/internal/op"
)

// fresh extracts st on a throwaway one-variant plan: what a variant
// solved with reuse is compared against.
func fresh(t *testing.T, st *geom.Structure, opt Options) *Result {
	t.Helper()
	p, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Extract(st)
	if err != nil {
		t.Fatalf("fresh plan: %v", err)
	}
	return res
}

// capError is the conventional accuracy metric: max relative entry
// difference, normalized per-row by the diagonal.
func capError(got, ref *linalg.Dense) float64 {
	var maxRel float64
	for i := 0; i < ref.Rows; i++ {
		den := math.Abs(ref.At(i, i))
		for j := 0; j < ref.Cols; j++ {
			if rel := math.Abs(got.At(i, j)-ref.At(i, j)) / den; rel > maxRel {
				maxRel = rel
			}
		}
	}
	return maxRel
}

func crossingAt(h float64) *geom.Structure {
	sp := geom.DefaultCrossingPair()
	sp.H = h
	return sp.Build()
}

// TestPlanIncrementalConsistency sweeps the crossing separation through
// one plan per backend and pins every point to a fresh one-variant plan
// of the same variant: stage reuse must be invisible in the results to
// 1e-10. Iterative backends run at
// a 1e-12 tolerance so solver-path differences (warm starts, copied
// entries' coordinate noise) sit far below the bound.
func TestPlanIncrementalConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("several full solves per backend")
	}
	backends := []struct {
		name string
		edge float64
		hs   []float64
		opt  op.Options
	}{
		{"dense-direct", 0.4e-6, []float64{0.4e-6, 0.55e-6, 0.7e-6, 0.85e-6},
			op.Options{Backend: op.BackendDense, Direct: true}},
		{"fmm", 0.4e-6, []float64{0.4e-6, 0.55e-6, 0.7e-6, 0.85e-6},
			op.Options{Backend: op.BackendFMM, Precond: op.PrecondBlockJacobi,
				Tol: 1e-12, FMM: &fmm.Options{Workers: 1}}},
		// The pfft leg runs a coarser discretization: at a 1e-12
		// tolerance its grid-convolution matvec converges slowly, and
		// the point of this leg is reuse consistency, not operator
		// accuracy.
		{"pfft", 0.6e-6, []float64{0.4e-6, 0.6e-6, 0.8e-6},
			op.Options{Backend: op.BackendPFFT, Tol: 1e-12}},
	}
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			edge, hs := be.edge, be.hs
			p, err := New(Options{MaxEdge: edge, Pipeline: be.opt})
			if err != nil {
				t.Fatal(err)
			}
			for _, h := range hs {
				st := crossingAt(h)
				res, err := p.Extract(st)
				if err != nil {
					t.Fatalf("h=%g: plan: %v", h, err)
				}
				ref := fresh(t, st, Options{MaxEdge: edge, Pipeline: be.opt})
				if e := capError(res.C, ref.C); e > 1e-10 {
					t.Errorf("h=%g: reuse deviates from a fresh plan by %.3g (tol 1e-10)", h, e)
				}
			}
			s := p.Stats()
			if s.NearReused == 0 && s.DenseReused == 0 {
				t.Error("sweep reused no near-field entries")
			}
			t.Logf("stats: %+v", s)
		})
	}
}

// TestPlanCacheHitAllocs pins the identical-geometry fast path: after
// the first build, re-extracting the same structure must return the
// cached result without building any topology or near-field artifact —
// and without allocating at all.
func TestPlanCacheHitAllocs(t *testing.T) {
	p, err := New(Options{MaxEdge: 0.5e-6,
		Pipeline: op.Options{Backend: op.BackendDense, Direct: true}})
	if err != nil {
		t.Fatal(err)
	}
	st := crossingAt(0.5e-6)
	first, err := p.Extract(st)
	if err != nil {
		t.Fatal(err)
	}
	again, err := p.Extract(st)
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Fatal("cache hit did not return the cached result")
	}
	before := p.Stats()
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := p.Extract(st); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("cache-hit Extract allocates %v objects, want 0", allocs)
	}
	after := p.Stats()
	if after.DiscBuilds != before.DiscBuilds || after.TopoBuilds != before.TopoBuilds ||
		after.NearBuilds != before.NearBuilds || after.FactBuilds != before.FactBuilds {
		t.Errorf("cache hits rebuilt stages: before %+v after %+v", before, after)
	}
	if after.CacheHits <= before.CacheHits {
		t.Error("cache hits not counted")
	}
}

// TestPlanStageReuse checks the reuse flags and counters across an
// h-variant chain on the fmm backend, including block-factor adoption.
func TestPlanStageReuse(t *testing.T) {
	const edge = 0.4e-6
	p, err := New(Options{MaxEdge: edge, Pipeline: op.Options{
		Backend: op.BackendFMM, Precond: op.PrecondBlockJacobi,
		Tol: 1e-6, FMM: &fmm.Options{Workers: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := p.Extract(crossingAt(0.5e-6))
	if err != nil {
		t.Fatal(err)
	}
	if cold.Reused.NearField || cold.Reused.Factorization {
		t.Errorf("cold extract reports reuse: %+v", cold.Reused)
	}
	warm, err := p.Extract(crossingAt(0.6e-6))
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Reused.NearField {
		t.Error("h variant did not reuse near-field entries")
	}
	if !warm.Reused.Factorization {
		t.Error("h variant did not adopt any block factors")
	}
	s := p.Stats()
	if s.NearReused == 0 || s.FactReused == 0 || s.WarmStarts == 0 {
		t.Errorf("reuse counters not advanced: %+v", s)
	}
	if s.NearReused < s.NearComputed {
		t.Errorf("copied %d < computed %d near entries: within-layer pairs should dominate",
			s.NearReused, s.NearComputed)
	}
	if warm.Iterations >= cold.Iterations {
		t.Errorf("warm start did not cut iterations: cold %d, warm %d",
			cold.Iterations, warm.Iterations)
	}
	// A resized wire is not a rigid motion: the chain must degrade to a
	// fresh fill, not corrupt results.
	sp := geom.DefaultCrossingPair()
	sp.Width *= 1.3
	reshaped, err := p.Extract(sp.Build())
	if err != nil {
		t.Fatal(err)
	}
	if reshaped.Reused.NearField {
		t.Error("reshaped variant claims near-field reuse")
	}
}
