// Package extract implements the template-extraction pipeline that
// instantiable basis functions are built from (paper Section 2.2 and
// Figure 2, following reference [3]): the elementary crossing-wire problem
// is solved with a finely discretized piecewise-constant solver, the
// induced charge profile on the target wire's facing surface is measured,
// and the profile is decomposed into a constant flat shape plus reflected
// arch shapes whose amplitudes a(h), b(h) and decay lengths parameterize
// the template library.
package extract

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"

	"parbem/internal/fmm"
	"parbem/internal/geom"
	"parbem/internal/linalg"
	"parbem/internal/op"
	"parbem/internal/pcbem"
	"parbem/internal/plan"
	"parbem/internal/sched"
)

// iterativeThreshold is the panel count above which the elementary
// crossing problem is solved with the multipole-accelerated iterative
// path instead of the O(N^3) dense factorization. Below it the dense
// solve is both faster and exact; above it the accelerated path cuts the
// cold-start template-build cost from cubic to near-linear.
const iterativeThreshold = 1500

// iterativeTol is the GMRES tolerance of the accelerated template
// solves: 100x tighter than the capacitance baselines' 1e-4, because the
// extracted arch shapes are differences of nearby densities.
const iterativeTol = 1e-6

// solveCrossing solves a panelized crossing problem with the fastest
// applicable method. Above iterativeThreshold panels it runs the unified
// pipeline on the list-based multipole operator with a conservative
// opening parameter, the near-field block-Jacobi preconditioner and a
// tight tolerance; if that solve fails to converge (the accuracy guard),
// it falls back to the dense direct solve rather than return a degraded
// profile.
func solveCrossing(prob *pcbem.Problem) (*pcbem.Result, error) {
	if prob.N() < iterativeThreshold {
		return prob.SolveDense()
	}
	// Workers: 1 — parallelism comes from the layers above (SweepH runs
	// GOMAXPROCS h-points concurrently and the pipeline one GMRES per
	// conductor); a parallel operator here would oversubscribe ~P^2.
	res, err := prob.SolvePipeline(op.Options{
		Backend: op.BackendFMM,
		Precond: op.PrecondBlockJacobi,
		Tol:     iterativeTol,
		FMM:     &fmm.Options{Theta: 0.3, NearFactor: 2, Workers: 1},
	})
	if err == nil {
		return res, nil
	}
	return prob.SolveDense()
}

// Profile is the width-averaged charge density on the target wire's top
// face as a function of the coordinate along the wire.
type Profile struct {
	U   []float64 // bin centers along the wire (m), sorted
	Rho []float64 // width-averaged charge density (C/m^2) per bin
}

// CrossingProfile solves the elementary problem of a crossing pair with the
// source (upper) wire at 1 V and the target (lower) wire grounded, and
// returns the induced charge profile on the target's top face.
func CrossingProfile(sp geom.CrossingPairSpec, maxEdge float64) (*Profile, error) {
	st := sp.Build()
	prob, err := pcbem.NewProblem(st, maxEdge)
	if err != nil {
		return nil, err
	}
	res, err := solveCrossing(prob)
	if err != nil {
		return nil, err
	}
	return profileFrom(sp, prob.Panels, res.Rho)
}

// profileFrom bins a solved charge density into the width-averaged
// profile on the target wire's top face (excitation column 1: source
// conductor at 1 V).
func profileFrom(sp geom.CrossingPairSpec, panels []geom.Panel, rho *linalg.Dense) (*Profile, error) {
	topZ := sp.Thickness / 2 // top face of the bottom wire
	type bin struct {
		area, charge float64
	}
	bins := map[float64]*bin{}
	for i, pan := range panels {
		if pan.Conductor != 0 || pan.Normal != geom.Z || pan.Offset != topZ {
			continue
		}
		// Top face of the bottom wire: U axis is X (along the wire).
		u := pan.U.Mid()
		b := bins[u]
		if b == nil {
			b = &bin{}
			bins[u] = b
		}
		a := pan.Area()
		b.area += a
		b.charge += rho.At(i, 1) * a
	}
	if len(bins) == 0 {
		return nil, errors.New("extract: no panels found on the target top face")
	}
	p := &Profile{}
	for u := range bins {
		p.U = append(p.U, u)
	}
	sort.Float64s(p.U)
	p.Rho = make([]float64, len(p.U))
	for i, u := range p.U {
		b := bins[u]
		p.Rho[i] = b.charge / b.area
	}
	return p, nil
}

// ArchFit summarizes the flat + arch decomposition of a crossing profile
// (paper Figure 2's annotations).
type ArchFit struct {
	Flat    float64 // a(h): plateau density magnitude far from the crossing
	Peak    float64 // b(h): peak density magnitude in the crossing region
	PeakPos float64 // position of the peak along the wire
	// Decay is the 1/e length of the induced bump beyond the shadow
	// edge (the "extension length" scale).
	Decay float64
}

// FitArch decomposes a profile measured for crossing spec sp. The flat
// level is the median density over the outer thirds of the wire; the arch
// peak is the extremal density within the crossing region; the decay
// length is fitted from the residual's fall-off beyond the shadow edge.
func FitArch(p *Profile, sp geom.CrossingPairSpec) (*ArchFit, error) {
	n := len(p.U)
	if n < 8 {
		return nil, errors.New("extract: profile too coarse to fit")
	}
	span := p.U[n-1] - p.U[0]
	// Outer-third plateau.
	var outer []float64
	for i, u := range p.U {
		if math.Abs(u) > span/3 {
			outer = append(outer, p.Rho[i])
		}
	}
	if len(outer) == 0 {
		return nil, errors.New("extract: wire too short relative to crossing")
	}
	sort.Float64s(outer)
	flat := outer[len(outer)/2]

	// Peak within the shadow (|u| <= w/2) plus one gap length.
	half := sp.Width/2 + sp.H
	peak, peakPos := flat, 0.0
	for i, u := range p.U {
		if math.Abs(u) <= half && math.Abs(p.Rho[i]) > math.Abs(peak) {
			peak, peakPos = p.Rho[i], u
		}
	}

	// Decay fit: residual |rho - flat| from the shadow edge outward,
	// least-squares on log residual.
	edge := sp.Width / 2
	var xs, ys []float64
	for i, u := range p.U {
		d := math.Abs(u) - edge
		if d <= 0 || d > 6*sp.H {
			continue
		}
		r := math.Abs(p.Rho[i] - flat)
		if r <= 0 {
			continue
		}
		xs = append(xs, d)
		ys = append(ys, math.Log(r))
	}
	decay := sp.H // fallback: the physical scale
	if len(xs) >= 3 {
		// Linear fit ys = c0 - x/lambda.
		var sx, sy, sxx, sxy float64
		for i := range xs {
			sx += xs[i]
			sy += ys[i]
			sxx += xs[i] * xs[i]
			sxy += xs[i] * ys[i]
		}
		nf := float64(len(xs))
		slope := (nf*sxy - sx*sy) / (nf*sxx - sx*sx)
		if slope < 0 {
			decay = -1 / slope
		}
	}
	return &ArchFit{Flat: flat, Peak: peak, PeakPos: peakPos, Decay: decay}, nil
}

// PointError records the failure of one sweep point, tagged with the
// separation it belongs to.
type PointError struct {
	H   float64
	Err error
}

// Error implements the error interface.
func (e *PointError) Error() string {
	return fmt.Sprintf("extract: sweep point h=%g: %v", e.H, e.Err)
}

// Unwrap exposes the underlying failure.
func (e *PointError) Unwrap() error { return e.Err }

// PointErrors decomposes a SweepH error into its per-point failures.
// SweepH joins one PointError per failed separation (errors.Join); a
// caller reporting point-by-point — the extraction service streaming a
// sweep — needs every component, not just the first errors.As match.
// Non-PointError components (there are none today) are dropped; a nil
// error yields nil.
func PointErrors(err error) []*PointError {
	var out []*PointError
	var walk func(error)
	walk = func(e error) {
		if e == nil {
			return
		}
		if pe, ok := e.(*PointError); ok {
			out = append(out, pe)
			return
		}
		switch u := e.(type) {
		case interface{ Unwrap() []error }:
			for _, c := range u.Unwrap() {
				walk(c)
			}
		case interface{ Unwrap() error }:
			walk(u.Unwrap())
		}
	}
	walk(err)
	return out
}

// SweepH runs the extraction over a set of separations h and returns the
// fitted a(h), b(h) magnitudes — the parameter vectors p of the
// instantiable template library.
//
// The h-points are geometry variants of one structure, so the sweep
// runs on staged extraction plans (internal/plan): points are processed
// in h order, sharded into GOMAXPROCS contiguous chunks, one plan per
// chunk — adjacent separations reuse each other's near-field integrals,
// factorizations and charge solutions, cutting per-point cost several
// times over independent solves (BenchmarkSweepIncremental).
//
// Failing points no longer abort the sweep: every error is collected as
// a PointError carrying its h value and returned joined, with fits[i]
// nil exactly for the failed points — callers keep the healthy part of
// the sweep.
func SweepH(base geom.CrossingPairSpec, hs []float64, maxEdge float64) ([]*ArchFit, error) {
	return SweepHWorkers(base, hs, maxEdge, 0)
}

// SweepHWorkers is SweepH with an explicit fan-out bound: at most
// workers point-solver goroutines run at once (0 = GOMAXPROCS). A
// service embedding the sweep passes its per-job worker budget (the
// engine's PlanWorkers) so template sweeps share the machine with the
// pool-budgeted pipeline jobs instead of oversubscribing it.
func SweepHWorkers(base geom.CrossingPairSpec, hs []float64, maxEdge float64, workers int) ([]*ArchFit, error) {
	fits := make([]*ArchFit, len(hs))
	errs := make([]error, len(hs))

	// Process in h order for maximal adjacent reuse; results map back
	// through the index permutation.
	order := make([]int, len(hs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return hs[order[a]] < hs[order[b]] })

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(hs)) // every chunk below is non-empty
	// The panel count — and hence the method selection — is the same
	// for every point (only positions vary with h), so resolve the plan
	// options once, not per worker.
	popt := crossingPlanOptions(base, maxEdge)
	sched.Local(workers).Map(workers, func(w int) {
		chunk := order[w*len(hs)/workers : (w+1)*len(hs)/workers]
		p, err := plan.New(plan.Options{MaxEdge: maxEdge, Pipeline: popt})
		if err != nil {
			p = nil // degrade to independent per-point solves
		}
		for _, i := range chunk {
			sp := base
			sp.H = hs[i]
			fits[i], errs[i] = sweepPoint(p, sp, maxEdge)
		}
	})

	var joined []error
	for i, err := range errs {
		if err != nil {
			joined = append(joined, &PointError{H: hs[i], Err: err})
		}
	}
	return fits, errors.Join(joined...)
}

// crossingPlanOptions resolves solveCrossing's method selection for the
// sweep's panel count: dense direct below the iterative threshold, the
// conservative multipole configuration above it.
func crossingPlanOptions(base geom.CrossingPairSpec, maxEdge float64) op.Options {
	if len(base.Build().Panelize(maxEdge)) < iterativeThreshold {
		return op.Options{Backend: op.BackendDense, Direct: true}
	}
	return op.Options{
		Backend: op.BackendFMM,
		Precond: op.PrecondBlockJacobi,
		Tol:     iterativeTol,
		FMM:     &fmm.Options{Theta: 0.3, NearFactor: 2, Workers: 1},
	}
}

// sweepPoint extracts and fits one h-point, preferring the shared plan
// and falling back to an independent solve on a plan solve failure (the
// accuracy guard of solveCrossing, preserved under reuse). Profile
// binning errors are deterministic in the panelization and would repeat
// identically on the fallback, so they return directly.
func sweepPoint(p *plan.Plan, sp geom.CrossingPairSpec, maxEdge float64) (*ArchFit, error) {
	if p != nil {
		if res, err := p.Extract(sp.Build()); err == nil {
			prof, err := profileFrom(sp, res.Panels, res.Rho)
			if err != nil {
				return nil, err
			}
			return FitArch(prof, sp)
		}
	}
	prof, err := CrossingProfile(sp, maxEdge)
	if err != nil {
		return nil, err
	}
	return FitArch(prof, sp)
}
