package op

import (
	"context"
	"fmt"
	"math"

	"parbem/internal/linalg"
)

// Precision selects the arithmetic of the accelerated matvec inside the
// Krylov solve.
type Precision int

// Matvec precisions.
const (
	// PrecisionAuto (the zero value) resolves to PrecisionFP64: the
	// float32 mirror never showed an end-to-end win and its refinement
	// intermittently blew up (bench/README.md), so it runs only when
	// asked for by name.
	PrecisionAuto Precision = iota
	// PrecisionFP64 runs every apply in float64.
	PrecisionFP64
	// PrecisionMixed runs the inner Krylov applies through the
	// operator's float32 mirror, wrapped in float64 iterative
	// refinement; the converged result still satisfies the requested
	// fp64 residual tolerance.
	PrecisionMixed
)

// String implements fmt.Stringer.
func (p Precision) String() string {
	switch p {
	case PrecisionAuto:
		return "auto"
	case PrecisionFP64:
		return "fp64"
	case PrecisionMixed:
		return "mixed"
	}
	return fmt.Sprintf("Precision(%d)", int(p))
}

// ParsePrecision parses a -precision flag value.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "auto", "":
		return PrecisionAuto, nil
	case "fp64":
		return PrecisionFP64, nil
	case "mixed":
		return PrecisionMixed, nil
	}
	return PrecisionAuto, fmt.Errorf("op: unknown precision %q (want auto, fp64 or mixed)", s)
}

// MixedApplier is implemented by operators carrying an optional float32
// mirror (fmm.Operator, pfft.Operator): EnableMixed builds the mirror
// once, ApplyMixed runs the matvec through it with float64 vectors at
// the interface.
type MixedApplier interface {
	Operator
	EnableMixed()
	MixedEnabled() bool
	ApplyMixed(dst, x []float64)
}

// mixedMatvec adapts ApplyMixed to linalg.Matvec for the inner solves.
type mixedMatvec struct{ ma MixedApplier }

func (m mixedMatvec) Dim() int               { return m.ma.Dim() }
func (m mixedMatvec) Apply(dst, x []float64) { m.ma.ApplyMixed(dst, x) }

// resolvePrecision enables the operator's float32 mirror when the
// requested precision is mixed. Dense and direct solves, and operators
// without a mirror, stay fp64 regardless.
func (p *Pipeline) resolvePrecision() {
	if p.opt.Direct || p.opt.Precision != PrecisionMixed {
		return
	}
	ma, ok := p.a.(MixedApplier)
	if !ok {
		return
	}
	ma.EnableMixed()
	if ma.MixedEnabled() {
		p.mixedA = ma
	}
}

// Precision reports the resolved matvec arithmetic of this pipeline
// (never PrecisionAuto).
func (p *Pipeline) Precision() Precision {
	if p.mixedA != nil {
		return PrecisionMixed
	}
	return PrecisionFP64
}

// Iterative-refinement parameters of solveRefined.
const (
	// refineMaxOuter bounds the outer fp64 refinement steps before the
	// solve falls back to full fp64 GMRES.
	refineMaxOuter = 8
	// refineInnerMinTol is the floor on the inner (fp32) relative
	// tolerance: one fp32 apply carries ~1e-7 noise, so inner residuals
	// much below a few 1e-6 are unresolvable and would spin.
	refineInnerMinTol = 3e-6
	// refineInnerMaxTol keeps each inner solve making real progress
	// (at least one decimal digit per outer step).
	refineInnerMaxTol = 1e-1
)

// solveRefined solves one RHS column to the pipeline tolerance by
// float64 iterative refinement over float32 inner GMRES solves: the
// outer loop computes true fp64 residuals r = b - A x with the exact
// operator, the inner GMRES reduces each residual through the float32
// mirror (cheaper per iteration), and corrections are accumulated in
// float64. When refinement stalls — the fp32 noise floor amplified by
// conditioning exceeds what the remaining tolerance needs — the solve
// finishes with full fp64 GMRES from the current iterate, so mixed
// precision never loses accuracy, only (in the worst case) time. The
// inner and the finishing solves are against different operators, so each
// runs on an emptied space (linalg.GMRESWith on ws): nothing is shared
// between them or across columns.
func (p *Pipeline) solveRefined(ctx context.Context, ws *linalg.GMRESWorkspace, x, b []float64, pre func(dst, r []float64)) (linalg.GMRESResult, error) {
	tol := p.opt.Tol
	bn := linalg.Norm2(b)
	if bn == 0 {
		for i := range x {
			x[i] = 0
		}
		return linalg.GMRESResult{Converged: true}, nil
	}
	n := len(b)
	r := make([]float64, n)
	d := make([]float64, n)
	inner := mixedMatvec{p.mixedA}
	total, applies := 0, 0
	rel := math.Inf(1)
	for outer := 0; outer < refineMaxOuter; outer++ {
		if err := ctx.Err(); err != nil {
			return linalg.GMRESResult{Iterations: total, Applies: applies, Residual: rel}, err
		}
		p.a.Apply(r, x)
		applies++
		for i := range r {
			r[i] = b[i] - r[i]
		}
		prev := rel
		rel = linalg.Norm2(r) / bn
		if rel <= tol {
			return linalg.GMRESResult{Iterations: total, Applies: applies, Residual: rel, Converged: true}, nil
		}
		if outer > 0 && !(rel < 0.5*prev) {
			// Stalled (or NaN): refinement is no longer contracting.
			break
		}
		// Aim one outer step past the remaining gap, clamped to what
		// fp32 inner arithmetic can resolve.
		innerTol := 0.25 * tol / rel
		if innerTol < refineInnerMinTol {
			innerTol = refineInnerMinTol
		}
		if innerTol > refineInnerMaxTol {
			innerTol = refineInnerMaxTol
		}
		for i := range d {
			d[i] = 0
		}
		res, err := linalg.GMRESWith(ws, inner, d, r, linalg.GMRESOptions{
			Tol: innerTol, Restart: p.opt.Restart, Precond: pre, Ctx: ctx,
		})
		total += res.Iterations
		applies += res.Applies
		if err != nil {
			if ctx.Err() != nil {
				return linalg.GMRESResult{Iterations: total, Applies: applies, Residual: rel}, err
			}
			// Numerical breakdown in the fp32 inner solve: the fp64
			// fallback below owns the column from here.
			break
		}
		for i := range x {
			x[i] += d[i]
		}
	}
	// Full-fp64 finish from the current iterate: reached on stall,
	// inner breakdown, or outer-iteration exhaustion.
	res, err := linalg.GMRESWith(ws, p.a, x, b, linalg.GMRESOptions{
		Tol: tol, Restart: p.opt.Restart, Precond: pre, Ctx: ctx,
	})
	res.Iterations += total
	res.Applies += applies
	return res, err
}
