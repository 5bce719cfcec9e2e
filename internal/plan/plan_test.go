package plan

import (
	"math"
	"slices"
	"testing"

	"parbem/internal/fmm"
	"parbem/internal/geom"
	"parbem/internal/linalg"
	"parbem/internal/op"
	"parbem/internal/pfft"
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
// 1e-10. Iterative backends run at a 1e-12 tolerance so solver-path
// differences (warm starts, adopted factors) sit far below the bound.
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
			if s.NearReused == 0 {
				t.Error("sweep produced every near-field entry by integrating")
			}
			t.Logf("stats: %+v", s)
		})
	}
}

// TestVariantNearFieldBitwise: a variant's near field is bitwise a fresh
// plan's on every backend — the fmm CSR values, the pfft precorrection
// rows (corrections and exact entries) and the dense matrix, entry by
// entry. An fmm or pfft variant builds its near field as a fresh build
// does, from the class table; a dense variant rewrites the previous
// variant's matrix in place and keeps, in both triangles, the entries of
// rigidly co-moved panel pairs, which must be the values a fresh build
// reads — as many as Stats.DenseReused pins. The crossing's x/y span fixes
// the pfft grid, so a z-only H change shares the previous variant's kernel
// transform.
func TestVariantNearFieldBitwise(t *testing.T) {
	busAt := func(h float64) *geom.Structure {
		sp := geom.DefaultBus(3, 3)
		sp.H = h
		return sp.Build()
	}
	dense := op.Options{Backend: op.BackendDense, Direct: true}
	for _, c := range []struct {
		name    string
		edge    float64
		at      func(h float64) *geom.Structure
		h0, h1  float64
		opt     op.Options
		entries int
		kept    int64 // upper entries the dense variant keeps
	}{
		{"fmm/crossing", 0.4e-6, crossingAt, 0.5e-6, 0.6e-6,
			op.Options{Backend: op.BackendFMM, FMM: &fmm.Options{Workers: 1}}, 122182, 0},
		// There the two layers share no near leaf pair, so every entry
		// keeps its value; at TestSweepIncrementalSpeedup's first step
		// 75 604 of the entries change.
		{"fmm/crossing-close", 0.25e-6, crossingAt, 0.3e-6, 0.35e-6,
			op.Options{Backend: op.BackendFMM, FMM: &fmm.Options{Workers: 1}}, 275072, 0},
		// (A loose tolerance: the near field is what is compared, and the
		// solve's convolutions are what the race detector is slow at.)
		{"pfft/crossing", 0.4e-6, crossingAt, 0.5e-6, 0.6e-6,
			op.Options{Backend: op.BackendPFFT, Tol: 0.5, PFFT: &pfft.Options{Workers: 1}}, 7610, 0},
		{"dense/crossing", 0.4e-6, crossingAt, 0.5e-6, 0.6e-6, dense, 274576, 68906},
		{"dense/bus3x3", 1e-6, busAt, 0.6e-6, 1.3e-6, dense, 51984, 6555},
	} {
		t.Run(c.name, func(t *testing.T) {
			// run extracts the given separations through one plan and
			// returns the last one's result, near-field values — per entry
			// one value, or a pfft row entry's correction and exact value —
			// and the plan's Stats.DenseReused.
			run := func(hs ...float64) (res *Result, rows []int32, vals [][]float64, kept int64) {
				p, err := New(Options{MaxEdge: c.edge, Pipeline: c.opt})
				if err != nil {
					t.Fatal(err)
				}
				for _, h := range hs {
					if res, err = p.Extract(c.at(h)); err != nil {
						t.Fatal(err)
					}
				}
				kept = p.Stats().DenseReused
				switch v := p.cur; {
				case v.fmmOp != nil:
					return res, nil, [][]float64{v.fmmOp.NearVals()}, kept
				case v.pfftOp != nil:
					a := v.pfftOp.NearArtifact()
					return res, a.RowLen, [][]float64{a.Val, a.Exact}, kept
				}
				return res, nil, [][]float64{p.cur.dense.Data}, kept
			}
			res, gotRows, got, kept := run(c.h0, c.h1)
			_, wantRows, want, _ := run(c.h1)
			if kept != c.kept {
				t.Errorf("the variant kept %d dense entries, want %d", kept, c.kept)
			}
			if c.opt.Backend == op.BackendPFFT && !res.Reused.Topology {
				t.Error("a z-only H change did not share the kernel transform")
			}
			if !slices.Equal(gotRows, wantRows) || len(got[0]) != c.entries || len(want[0]) != c.entries {
				t.Fatalf("layouts differ: %d and %d entries, want %d", len(got[0]), len(want[0]), c.entries)
			}
			differ := 0
			for k := range c.entries {
				for s := range want {
					if math.Float64bits(got[s][k]) != math.Float64bits(want[s][k]) {
						differ++
						break
					}
				}
			}
			if differ != 0 {
				t.Errorf("%d of %d near-field entries differ from a fresh plan's", differ, c.entries)
			}
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
	// An fmm variant builds its near field as a fresh build does.
	if warm.Reused.NearField {
		t.Error("fmm h variant claims near-field reuse")
	}
	if !warm.Reused.Factorization {
		t.Error("h variant did not adopt any block factors")
	}
	s := p.Stats()
	if s.NearReused == 0 || s.FactReused == 0 || s.WarmStarts == 0 {
		t.Errorf("reuse counters not advanced: %+v", s)
	}
	if s.NearComputed != s.ClassesIntegrated || s.NearReused < s.NearComputed {
		t.Errorf("near entries: %d without integrating, %d classes integrated (%d by the fills): lookups should dominate",
			s.NearReused, s.NearComputed, s.ClassesIntegrated)
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
