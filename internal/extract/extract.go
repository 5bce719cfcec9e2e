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
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"parbem/internal/fmm"
	"parbem/internal/geom"
	"parbem/internal/linalg"
	"parbem/internal/op"
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

// denseDirect is the exact solve of a crossing problem.
var denseDirect = op.Options{Backend: op.BackendDense, Direct: true}

// crossingOptions is the method selection of a crossing solve, made once
// per sweep: the panel count is the same at every separation (only
// positions vary with h). Below iterativeThreshold panels it is the
// dense direct solve; above, the list-based multipole operator with a
// conservative opening parameter, the near-field block-Jacobi
// preconditioner and a tight tolerance. Stage builds run on ex.
func crossingOptions(ex sched.Executor, sp geom.CrossingPairSpec, maxEdge float64) plan.Options {
	opt := plan.Options{MaxEdge: maxEdge, Pipeline: denseDirect, Exec: ex}
	if len(sp.Build().Panelize(maxEdge)) >= iterativeThreshold {
		// Workers: 1 — parallelism comes from the layer above (SweepH
		// solves several h-points at once); a parallel operator under it
		// would oversubscribe ~P^2.
		opt.Pipeline = op.Options{
			Backend: op.BackendFMM,
			Precond: op.PrecondBlockJacobi,
			Tol:     iterativeTol,
			FMM:     &fmm.Options{Theta: 0.3, NearFactor: 2, Workers: 1},
		}
	}
	return opt
}

// solveCrossing solves one crossing problem as a variant of p, a plan
// made from opt. If an iterative solve fails to converge (the accuracy
// guard), it falls back to the dense direct solve on a plan of its own
// rather than return a degraded profile; a done context is not a failed
// solve.
func solveCrossing(ctx context.Context, p *plan.Plan, opt plan.Options, sp geom.CrossingPairSpec) (*plan.Result, error) {
	res, err := p.ExtractCtx(ctx, sp.Build())
	if err == nil || opt.Pipeline.Direct || ctx.Err() != nil {
		return res, err
	}
	opt.Pipeline = denseDirect
	if p, err = plan.New(opt); err != nil {
		return nil, err
	}
	return p.ExtractCtx(ctx, sp.Build())
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
	opt := crossingOptions(nil, sp, maxEdge)
	p, err := plan.New(opt)
	if err != nil {
		return nil, err
	}
	res, err := solveCrossing(context.Background(), p, opt, sp)
	if err != nil {
		return nil, err
	}
	return profileFrom(sp, res.Panels, res.Rho)
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
// runs on staged extraction plans (internal/plan): points are handed out
// in h order as tasks of one ex.Map call, and each task solves its point
// on a plan no other task is using — as many plans as ex runs tasks at
// once, one on a serial executor. Successive separations on a plan reuse
// each other's near-field integrals, factorizations and charge
// solutions, cutting per-point cost several times over independent
// solves (BenchmarkSweepIncremental); the plans' stage builds run on ex
// too, so a budgeted executor bounds the whole sweep.
//
// Every plan extraction observes ctx at its stage boundaries and GMRES
// iterations: once ctx is done the remaining points fail fast with the
// context's error. Failing points do not abort the sweep: every error is
// collected as a PointError carrying its h value and returned joined,
// with fits[i] nil exactly for the failed points — callers keep the
// healthy part of the sweep.
func SweepH(ctx context.Context, ex sched.Executor, base geom.CrossingPairSpec, hs []float64, maxEdge float64) ([]*ArchFit, error) {
	fits, _, err := sweepH(ctx, ex, base, hs, maxEdge)
	return fits, err
}

// sweepH is SweepH, also returning the plans it ran on.
func sweepH(ctx context.Context, ex sched.Executor, base geom.CrossingPairSpec, hs []float64, maxEdge float64) ([]*ArchFit, []*plan.Plan, error) {
	fits := make([]*ArchFit, len(hs))
	errs := make([]error, len(hs))

	// Process in h order for maximal adjacent reuse; results map back
	// through the index permutation.
	order := make([]int, len(hs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return hs[order[a]] < hs[order[b]] })

	opt := crossingOptions(ex, base, maxEdge)
	var mu sync.Mutex
	var plans, idle []*plan.Plan
	take := func() (*plan.Plan, error) {
		mu.Lock()
		defer mu.Unlock()
		if n := len(idle); n > 0 {
			p := idle[n-1]
			idle = idle[:n-1]
			return p, nil
		}
		p, err := plan.New(opt)
		if err == nil {
			plans = append(plans, p)
		}
		return p, err
	}
	ex.Map(len(hs), func(k int) {
		i := order[k]
		p, err := take()
		if err != nil {
			errs[i] = err
			return
		}
		sp := base
		sp.H = hs[i]
		fits[i], errs[i] = sweepPoint(ctx, p, opt, sp)
		mu.Lock()
		idle = append(idle, p)
		mu.Unlock()
	})

	var joined []error
	for i, err := range errs {
		if err != nil {
			joined = append(joined, &PointError{H: hs[i], Err: err})
		}
	}
	return fits, plans, errors.Join(joined...)
}

// sweepPoint extracts and fits one h-point on p.
func sweepPoint(ctx context.Context, p *plan.Plan, opt plan.Options, sp geom.CrossingPairSpec) (*ArchFit, error) {
	res, err := solveCrossing(ctx, p, opt, sp)
	if err != nil {
		return nil, err
	}
	prof, err := profileFrom(sp, res.Panels, res.Rho)
	if err != nil {
		return nil, err
	}
	return FitArch(prof, sp)
}
