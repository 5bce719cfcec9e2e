package parbem

import (
	"context"
	"slices"
	"testing"
	"time"
)

// TestSweepIncrementalSpeedup enforces the staged-plan value
// proposition: a 16-point crossing h-sweep through one parbem.Plan does a
// fraction of the work of 16 independent ExtractPipeline calls while
// agreeing with every one of them to 1e-10. The saving is work
// elimination, not parallelism — a variant integrates only the symmetry
// classes its plan's table has not met (a pair that moved rigidly keeps
// its class), block factors over unchanged panels are adopted, and the
// Krylov solves start from the previous point's charges — so it is
// asserted as work, in the plan's own counters, which repeat exactly on
// any host. (The wall-clock ratio is logged; the benchmark's plan_sweep
// workload is where it is measured.)
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
	classes := make([]int64, points)
	lookups := make([]int64, points)
	t0 := time.Now()
	for i, h := range hs {
		res, fill, err := p.ExtractFillCtx(context.Background(), variant(h))
		if err != nil {
			t.Fatalf("plan h=%g: %v", h, err)
		}
		planRes[i], classes[i], lookups[i] = res, fill.ClassesIntegrated, fill.PairsNear
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
		if planRes[i].Reused.Factorization {
			factors++
		}
		if planRes[i].Iterations >= indep.Iterations {
			t.Errorf("h=%g: %d iterations from a warm start, %d from a cold one", h, planRes[i].Iterations, indep.Iterations)
		}
	}
	indepTime := time.Since(t0)

	st := p.Stats()
	t.Logf("16-point h-sweep: plan %v, independent %v, %.2fx; near lookups per point %v (stats %+v)",
		planTime, indepTime, float64(indepTime)/float64(planTime), lookups, st)
	if st.WarmStarts != points-1 {
		t.Errorf("%d warm starts over %d variants", st.WarmStarts, points-1)
	}
	// The first point integrates its classes; a variant integrates only
	// the cross-layer classes its new separation brings.
	if want := []int64{1348, 970, 970, 970, 465, 66, 66, 66, 66, 66, 287, 287, 287, 287, 95, 36}; !slices.Equal(classes, want) {
		t.Errorf("classes integrated per point %v, want %v", classes, want)
	}
	if st.NearComputed != st.ClassesIntegrated || st.NearReused < 3*st.NearComputed {
		t.Errorf("near-field entries: %d without integrating, %d classes integrated (%d counted by the fills); want at least 3:1",
			st.NearReused, st.NearComputed, st.ClassesIntegrated)
	}
	// Block factors carry over except where a step moves panels between
	// leaves (2 of these 15 steps).
	if factors != points-3 || st.FactReused != 1664 {
		t.Errorf("block factors adopted on %d of %d variants (%d factors), want %d (1664)", factors, points-1, st.FactReused, points-3)
	}
}
