package parbem

import (
	"testing"
	"time"
)

// TestSweepIncrementalSpeedup enforces the staged-plan value
// proposition: a 16-point crossing h-sweep through one parbem.Plan does a
// fraction of the work of 16 independent ExtractPipeline calls while
// agreeing with every one of them to 1e-10. The speedup comes from work
// elimination, not parallelism — on the h variants only cross-layer
// near-field integrals are recomputed, block factors over unchanged
// panels are adopted, and the Krylov solves warm-start from the previous
// point — so it is asserted as work, in the plan's own counters, which
// repeat exactly on any host. (The wall-clock ratio, about 2-3x on one
// core, is logged; the benchmark's plan_sweep workload is where it is
// measured.)
func TestSweepIncrementalSpeedup(t *testing.T) {
	const (
		edge   = 0.25e-6
		points = 16
	)
	hs := make([]float64, points)
	for i := range hs {
		hs[i] = 0.3e-6 + 0.05e-6*float64(i)
	}
	popt := PipelineOptions{
		Backend: BackendFMM,
		Precond: PrecondBlockJacobi,
		// Tight tolerance: both paths must converge far below the
		// 1e-10 agreement bound so warm starts are invisible.
		Tol: 1e-12,
		FMM: &FastCapOptions{Workers: 1},
	}
	variant := func(h float64) *Structure {
		sp := NewCrossingPair()
		sp.H = h
		return sp.Build()
	}

	p, err := NewPlan(PlanOptions{MaxEdge: edge, Pipeline: popt})
	if err != nil {
		t.Fatal(err)
	}
	planRes := make([]*PlanResult, points)
	t0 := time.Now()
	for i, h := range hs {
		if planRes[i], err = p.Extract(variant(h)); err != nil {
			t.Fatalf("plan h=%g: %v", h, err)
		}
	}
	planTime := time.Since(t0)

	t0 = time.Now()
	factors := 0
	for i, h := range hs {
		indep, err := ExtractPipeline(variant(h), edge, popt)
		if err != nil {
			t.Fatalf("fresh plan h=%g: %v", h, err)
		}
		if e := CapError(planRes[i].C, indep.C); e > 1e-10 {
			t.Errorf("h=%g: reuse deviates from a fresh one-variant plan by %.3g (tol 1e-10)", h, e)
		}
		if i == 0 {
			continue
		}
		if !planRes[i].Reused.NearField {
			t.Errorf("h=%g: near field built without the previous point's", h)
		}
		if planRes[i].Reused.Factorization {
			factors++
		}
		if planRes[i].Iterations >= indep.Iterations {
			t.Errorf("h=%g: %d iterations from a warm start, %d from a cold one", h, planRes[i].Iterations, indep.Iterations)
		}
	}
	indepTime := time.Since(t0)

	st := p.Stats()
	t.Logf("16-point h-sweep: plan %v, independent %v, %.2fx (stats %+v)",
		planTime, indepTime, float64(indepTime)/float64(planTime), st)
	if st.WarmStarts != points-1 {
		t.Errorf("%d warm starts over %d variants", st.WarmStarts, points-1)
	}
	// The cold first point counts no entries either way; over the
	// variants at most a quarter of the near field is integrated afresh.
	if st.NearReused < 3*st.NearComputed || st.NearComputed == 0 {
		t.Errorf("near-field entries: %d copied, %d integrated; want at least 3:1", st.NearReused, st.NearComputed)
	}
	// Block factors carry over except where a step moves panels between
	// leaves (2 of these 15 steps).
	if factors < (points-1)*3/4 || st.FactReused == 0 {
		t.Errorf("block factors adopted on %d of %d variants (%d factors)", factors, points-1, st.FactReused)
	}
}
