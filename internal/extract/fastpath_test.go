package extract

import (
	"context"
	"errors"
	"math"
	"testing"

	"parbem/internal/geom"
	"parbem/internal/plan"
	"parbem/internal/sched"
)

// sweep is SweepH as the library runs it, its point errors joined.
func sweep(base geom.CrossingPairSpec, hs []float64, maxEdge float64) ([]*ArchFit, error) {
	fits, errs := SweepH(context.Background(), sched.Local(0), base, hs, maxEdge)
	return fits, errors.Join(errs...)
}

// TestIterativeCrossingMatchesDense verifies the accelerated template
// solve: above the panel threshold solveCrossing must route through the
// multipole iterative path and reproduce the dense charge densities to
// well within the arch-fit sensitivity.
func TestIterativeCrossingMatchesDense(t *testing.T) {
	if testing.Short() {
		t.Skip("dense reference solve is O(N^3)")
	}
	sp := smallSpec()
	opt := crossingOptions(nil, sp, 0.15e-6)
	solve := func(opt plan.Options) *plan.Result {
		p, err := plan.New(opt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := solveCrossing(context.Background(), p, opt, sp)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fast := solve(opt)
	if fast.NumPanels < iterativeThreshold {
		t.Fatalf("problem too small to exercise the fast path: N=%d", fast.NumPanels)
	}
	if fast.Iterations == 0 {
		t.Fatal("solveCrossing did not take the iterative path")
	}
	opt.Pipeline = denseDirect
	dense := solve(opt)
	// Column 1 is the excitation CrossingProfile reads.
	var num, den float64
	for i := 0; i < fast.NumPanels; i++ {
		d := fast.Rho.At(i, 1) - dense.Rho.At(i, 1)
		num += d * d
		den += dense.Rho.At(i, 1) * dense.Rho.At(i, 1)
	}
	// The floor is the operator's center-monopole treatment of
	// mid-range panel pairs (~0.2%), far below the arch-fit
	// sensitivity; the bound guards against regressions on top of it.
	rel := math.Sqrt(num / den)
	if rel > 1e-2 {
		t.Fatalf("iterative charge densities off by %g relative", rel)
	}
}

// TestSweepHMatchesSequential pins the plan-based sweep to the
// per-point results: each h is the same elementary problem an
// independent CrossingProfile solves, and stage reuse only perturbs
// integrals at the coordinate-noise floor (a copied dense entry is the
// class value a fresh build reads; plan's TestVariantNearFieldBitwise),
// far below the fits' physical scales.
func TestSweepHMatchesSequential(t *testing.T) {
	base := smallSpec()
	hs := []float64{0.4e-6, 0.8e-6}
	fits, err := sweep(base, hs, 0.5e-6)
	if err != nil {
		t.Fatal(err)
	}
	close := func(a, b float64) bool {
		return math.Abs(a-b) <= 1e-8*(math.Abs(a)+math.Abs(b))
	}
	// The decay length is a log-residual least-squares slope: residuals
	// near the plateau sit close to zero, so the log amplifies the
	// coordinate-noise floor by several orders. 1e-5 relative is still
	// ~1000x below the fit's physical accuracy.
	closeDecay := func(a, b float64) bool {
		return math.Abs(a-b) <= 1e-5*(math.Abs(a)+math.Abs(b))
	}
	for i, h := range hs {
		sp := base
		sp.H = h
		prof, err := CrossingProfile(sp, 0.5e-6)
		if err != nil {
			t.Fatal(err)
		}
		want, err := FitArch(prof, sp)
		if err != nil {
			t.Fatal(err)
		}
		if !close(fits[i].Flat, want.Flat) || !close(fits[i].Peak, want.Peak) ||
			fits[i].PeakPos != want.PeakPos || !closeDecay(fits[i].Decay, want.Decay) {
			t.Fatalf("h=%g: sweep fit %+v != sequential %+v", h, fits[i], want)
		}
	}
}

// TestSweepHPartialErrors verifies per-point error propagation: a
// poisoned h value fails alone, at its own index of the errors, while
// the healthy points still produce fits and no error.
func TestSweepHPartialErrors(t *testing.T) {
	base := smallSpec()
	hs := []float64{0.4e-6, math.NaN(), 0.8e-6}
	fits, errs := SweepH(context.Background(), sched.Local(0), base, hs, 0.5e-6)
	if len(fits) != len(hs) || len(errs) != len(hs) {
		t.Fatalf("%d fits and %d errors for %d points", len(fits), len(errs), len(hs))
	}
	if errs[1] == nil {
		t.Fatal("poisoned point returned no error")
	}
	if errs[0] != nil || errs[2] != nil {
		t.Errorf("healthy points returned errors %v, %v", errs[0], errs[2])
	}
	if fits[0] == nil || fits[2] == nil {
		t.Error("healthy points lost their fits")
	}
	if fits[1] != nil {
		t.Error("failed point produced a fit")
	}
}

// TestPointErrorsDecomposition pins the service-edge contract: every
// failed point of a sweep has its own error at its own index, so a
// streaming caller can emit one error entry per point instead of
// dropping points behind the first failure.
func TestPointErrorsDecomposition(t *testing.T) {
	base := smallSpec()
	hs := []float64{math.NaN(), 0.5e-6, math.Inf(1), 0.8e-6}
	fits, errs := SweepH(context.Background(), sched.Local(0), base, hs, 0.5e-6)
	if len(fits) != len(hs) || len(errs) != len(hs) {
		t.Fatalf("%d fits and %d errors for %d points", len(fits), len(errs), len(hs))
	}
	failed := 0
	for i, h := range hs {
		healthy := !math.IsNaN(h) && !math.IsInf(h, 0)
		if errs[i] != nil {
			failed++
		}
		if healthy && (errs[i] != nil || fits[i] == nil) {
			t.Errorf("healthy point h=%g: fit %v, error %v", h, fits[i], errs[i])
		}
		if !healthy && (errs[i] == nil || fits[i] != nil) {
			t.Errorf("poisoned point h=%g: fit %v, error %v; want an error and no fit", h, fits[i], errs[i])
		}
	}
	if failed != 2 {
		t.Errorf("got %d point errors, want 2 (the NaN and +Inf points)", failed)
	}
}

// TestSweepHCancelled pins the sweep's deadline behaviour as work, not
// time: under an already-cancelled context every point fails with the
// context's error and no plan integrates a near field.
func TestSweepHCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	hs := []float64{0.4e-6, 0.6e-6, 0.8e-6}
	fits, errs, plans := sweepH(ctx, sched.Local(2), smallSpec(), hs, 0.5e-6)
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("h=%g: error %v does not wrap context.Canceled", hs[i], err)
		}
		if fits[i] != nil {
			t.Errorf("point %d produced a fit under a cancelled context", i)
		}
	}
	if len(plans) == 0 {
		t.Fatal("the sweep ran on no plan")
	}
	for _, p := range plans {
		if s := p.Stats(); s.NearBuilds != 0 {
			t.Errorf("a cancelled sweep built %d near fields", s.NearBuilds)
		}
	}
}
