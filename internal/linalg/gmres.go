package linalg

import (
	"context"
	"errors"
)

// Matvec abstracts y = A*x for iterative solvers; implementations include
// dense matrices, the multipole-accelerated operator, and the
// precorrected-FFT operator.
type Matvec interface {
	// Apply computes dst = A * x; dst and x never alias.
	Apply(dst, x []float64)
	// Dim returns the operator's (square) dimension.
	Dim() int
}

// GMRESOptions configures a solve in a search space (GMRESWorkspace).
type GMRESOptions struct {
	Tol float64 // relative residual tolerance (default 1e-6)
	// Restart bounds the directions a space keeps (default 50, at most the
	// dimension); it is read when the space is emptied (GMRESWith, Reset),
	// not by Solve. The space is a ring: once full, a new direction
	// overwrites the oldest and nothing is ever reset — a longer solve
	// minimises over the last Restart directions, its residual never grows.
	Restart int
	MaxIter int                    // iteration cap per solve (default 10 * Dim)
	Precond func(dst, r []float64) // optional right preconditioner M^{-1}
	// Ctx optionally bounds the solve: it is checked once before any work
	// and once per iteration (beside an operator application the check is
	// noise). A done context stops the solve at the next checkpoint with
	// ctx.Err(), x and the result holding the iterate reached, its
	// iteration count and its residual — an early exit, not a solution.
	Ctx context.Context
}

// GMRESResult reports convergence statistics.
type GMRESResult struct {
	// Iterations is the number of directions the solve added to its space,
	// one operator application each.
	Iterations int
	// Applies counts every operator application of the solve: the
	// iterations, the residual of a nonzero initial guess and the true
	// residual taken once the recurrence says converged.
	Applies int
	// Residual is the relative residual of the iterate left in x. On
	// convergence it is the true one, recomputed from the operator; on an
	// interruption, a breakdown or MaxIter it is the recurrence's, which x
	// has by construction: x and r move together, one direction at a time.
	Residual  float64
	Converged bool
}

// ErrGMRESBreakdown reports a direction the space could not take: the
// operator's image of the preconditioned residual was zero, not a number,
// or in the span of the images already held (a stagnated residual, a
// collapsed image). x holds the last iterate before it.
var ErrGMRESBreakdown = errors.New("linalg: GMRES breakdown")

// dependent is the share of a candidate's image that must survive
// orthogonalisation against the held directions for the space to take it:
// below it the normalised pair would carry the rounding of c = A·u
// amplified past any tolerance worth asking for.
const dependent = 1e-10

// GMRESWorkspace is a residual-minimising search space for one operator A:
// pairs (u_k, c_k = A·u_k) with the c_k orthonormal. Solving A x = b in it
// is GCR: the residual is first projected onto the held c's — x += (c_k·r)
// u_k, r -= (c_k·r) c_k, no operator application — and then directions
// z = M⁻¹ r, c = A z are added, c orthogonalised against the held c's with
// the same combination applied to z, until r is small. On an emptied space
// the iterates are those of right-preconditioned GMRES (same Krylov space,
// same minimiser): the one-right-hand-side use, GMRESWith. Kept across
// right-hand sides of one operator, the space starts each later solve
// where the earlier ones' directions leave it, and Seed puts known good
// directions (the solutions of a nearby system) in first. Its pairs are
// only true for the A that produced them.
//
// Buffers are allocated as directions arrive, so repeated solves allocate
// nothing once the space has been as full as they make it. A workspace
// serves one solve at a time.
type GMRESWorkspace struct {
	u, c [][]float64 // the ring of pairs, allocated slot by slot
	r    []float64
	dim  int // dimension of the pairs held
	lim  int // ring size: the Restart the space was emptied with
	held int // pairs in the ring: the held slots cyclically before next
	next int // slot the next pair is written to (the oldest, once full)
}

// Reset empties the space and sets it up for dimension n and up to restart
// directions (0 = 50, at most n); buffers are kept. The zero workspace
// needs one Reset before its first Solve or Seed.
func (ws *GMRESWorkspace) Reset(n, restart int) {
	m := restart
	if m == 0 {
		m = 50
	}
	m = min(m, n)
	for len(ws.u) < m {
		ws.u, ws.c = append(ws.u, nil), append(ws.c, nil)
	}
	if cap(ws.r) < n {
		ws.r = make([]float64, n)
	}
	ws.dim, ws.lim, ws.held, ws.next = n, m, 0, 0
}

// claim returns the buffers of the slot the next pair goes to. On a full
// ring that is the oldest pair, which leaves the space here.
func (ws *GMRESWorkspace) claim() (u, c []float64) {
	s, n := ws.next, ws.dim
	if ws.held == ws.lim {
		ws.held--
	}
	if cap(ws.u[s]) < n {
		ws.u[s], ws.c[s] = make([]float64, n), make([]float64, n)
	}
	return ws.u[s][:n], ws.c[s][:n]
}

// pair returns the i-th newest held pair, i in [1, held].
func (ws *GMRESWorkspace) pair(i int) (u, c []float64) {
	s := (ws.next - i + ws.lim) % ws.lim
	return ws.u[s][:ws.dim], ws.c[s][:ws.dim]
}

// admit takes the claimed pair (u, c = A·u) into the space: c is
// orthogonalised against the held c's by modified Gram-Schmidt, u follows
// with the same coefficients so that c = A·u stays true, and both are
// scaled to |c| = 1. It reports false, and the space is as it was less the
// pair claim dropped, when what is left of c is not a usable direction.
func (ws *GMRESWorkspace) admit(u, c []float64) bool {
	before := Norm2(c)
	for i := 1; i <= ws.held; i++ {
		uk, ck := ws.pair(i)
		h := Dot(ck, c)
		Axpy(-h, ck, c)
		Axpy(-h, uk, u)
	}
	nrm := Norm2(c)
	if !(nrm > dependent*before) { // also a zero or non-finite image
		return false
	}
	Scal(1/nrm, c)
	Scal(1/nrm, u)
	ws.next = (ws.next + 1) % ws.lim
	ws.held++
	return true
}

// Seed offers the space the direction u at the cost of one application of
// a (c = A·u): the previous solutions of a sequence of nearby systems are
// the directions the next one's solutions mostly lie along. It reports
// whether the space took it; a direction already in the span of the held
// ones (or a zero one) is dropped. u is not modified.
func (ws *GMRESWorkspace) Seed(a Matvec, u []float64) bool {
	su, sc := ws.claim()
	copy(su, u)
	a.Apply(sc, su)
	return ws.admit(su, sc)
}

// allZero reports whether every element of x is zero (either sign).
func allZero(x []float64) bool {
	for _, v := range x {
		if v != 0 {
			return false
		}
	}
	return true
}

// GMRES solves A x = b by right-preconditioned GMRES, writing the solution
// into x (which also provides the initial guess). It allocates a fresh
// space; use GMRESWith to reuse one's buffers across solves.
func GMRES(a Matvec, x, b []float64, opt GMRESOptions) (GMRESResult, error) {
	return GMRESWith(nil, a, x, b, opt)
}

// GMRESWith is GMRES in caller-provided scratch: ws is emptied, sized for
// the solve (opt.Restart directions) and solved in, so steady-state solves
// are allocation-free. ws may be nil.
func GMRESWith(ws *GMRESWorkspace, a Matvec, x, b []float64, opt GMRESOptions) (GMRESResult, error) {
	if ws == nil {
		ws = &GMRESWorkspace{}
	}
	ws.Reset(a.Dim(), opt.Restart)
	return ws.Solve(a, x, b, opt)
}

// Solve solves A x = b in the space as it stands, x providing the initial
// guess: the residual is projected onto the held directions, then
// directions are added until the relative residual is at most opt.Tol, at
// which point the true residual is recomputed and reported (Converged
// allows it 10·Tol for the drift of the recurrence). x and r are updated
// together after every direction, so whenever Solve returns — converged,
// interrupted, out of iterations or broken down — x is the iterate whose
// residual the result carries. The directions stay for the next solve.
func (ws *GMRESWorkspace) Solve(a Matvec, x, b []float64, opt GMRESOptions) (GMRESResult, error) {
	n := ws.dim
	if a.Dim() != n || len(x) != n || len(b) != n {
		return GMRESResult{}, errors.New("linalg: GMRES dimension mismatch")
	}
	if opt.Tol == 0 {
		opt.Tol = 1e-6
	}
	if opt.MaxIter == 0 {
		opt.MaxIter = 10 * n
	}
	bnorm := Norm2(b)
	if bnorm == 0 {
		for i := range x {
			x[i] = 0
		}
		return GMRESResult{Converged: true}, nil
	}
	// 1 = no progress beyond the guess, the report of a solve stopped
	// before it knew its residual.
	res := GMRESResult{Residual: 1}
	if opt.Ctx != nil {
		if err := opt.Ctx.Err(); err != nil {
			return res, err
		}
	}
	// residual sets r = b - A x from the operator.
	r := ws.r[:n]
	residual := func() {
		a.Apply(r, x)
		res.Applies++
		for i := range r {
			r[i] = b[i] - r[i]
		}
	}
	// A·0 is not worth an application to find out.
	if allZero(x) {
		copy(r, b)
	} else {
		residual()
	}
	step := func(u, c []float64) {
		alpha := Dot(c, r)
		Axpy(alpha, u, x)
		Axpy(-alpha, c, r)
	}
	for i := ws.held; i >= 1; i-- { // oldest first
		step(ws.pair(i))
	}
	for {
		res.Residual = Norm2(r) / bnorm
		if res.Residual <= opt.Tol {
			residual()
			res.Residual = Norm2(r) / bnorm
			res.Converged = res.Residual <= 10*opt.Tol
			return res, nil
		}
		if res.Iterations >= opt.MaxIter {
			return res, nil
		}
		if opt.Ctx != nil {
			if err := opt.Ctx.Err(); err != nil {
				return res, err
			}
		}
		u, c := ws.claim()
		if opt.Precond != nil {
			opt.Precond(u, r)
		} else {
			copy(u, r)
		}
		a.Apply(c, u)
		res.Iterations++
		res.Applies++
		if !ws.admit(u, c) {
			return res, ErrGMRESBreakdown
		}
		step(u, c)
	}
}
