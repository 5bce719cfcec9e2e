package linalg

import (
	"context"
	"errors"
	"math"

	"parbem/internal/sched"
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

// DenseOpParCutoff is the element count above which DenseOp uses the
// parallel row-blocked matvec when an executor is configured.
const DenseOpParCutoff = 1 << 15

// DenseOp adapts a Dense matrix to the Matvec interface. When Exec is
// non-nil and the matrix is at least DenseOpParCutoff elements, Apply
// runs the row-blocked parallel kernel on it.
type DenseOp struct {
	M    *Dense
	Exec sched.Executor
}

// Apply implements Matvec.
func (d DenseOp) Apply(dst, x []float64) {
	if d.Exec != nil && d.M.Rows*d.M.Cols >= DenseOpParCutoff {
		ParMulVec(d.Exec, d.M, dst, x)
		return
	}
	d.M.MulVec(dst, x)
}

// Dim implements Matvec.
func (d DenseOp) Dim() int { return d.M.Rows }

// GMRESOptions configures the restarted GMRES solver.
type GMRESOptions struct {
	Tol     float64                // relative residual tolerance (default 1e-6)
	Restart int                    // Krylov subspace size before restart (default 50)
	MaxIter int                    // total iteration cap (default 10 * Dim)
	Precond func(dst, r []float64) // optional right preconditioner M^{-1}
	// Ctx optionally bounds the solve: it is checked once per Arnoldi
	// iteration (each iteration is dominated by a matvec, so the check
	// is noise) and once per restart cycle. A done context stops the
	// solve at the next checkpoint and GMRESWith returns ctx.Err() with
	// the iterations completed so far — a deadline-aware early exit,
	// not a converged solution.
	Ctx context.Context
}

// GMRESResult reports convergence statistics.
type GMRESResult struct {
	Iterations int
	Residual   float64 // final relative residual
	Converged  bool
}

// ErrGMRESBreakdown indicates an unexpected zero in the Arnoldi process.
var ErrGMRESBreakdown = errors.New("linalg: GMRES breakdown")

// GMRESWorkspace holds every buffer a restarted GMRES solve needs —
// Arnoldi basis, Hessenberg factors, rotation state and residual
// scratch — so repeated solves (multi-RHS extractions, parameter
// sweeps) allocate nothing after the first. A workspace serves one
// solve at a time; concurrent solves each need their own.
type GMRESWorkspace struct {
	n, m int
	v    [][]float64 // m+1 Arnoldi vectors of length n
	h    *Dense      // (m+1) x m Hessenberg
	cs   []float64
	sn   []float64
	g    []float64
	yk   []float64
	r    []float64
	w    []float64
	z    []float64
}

// NewGMRESWorkspace preallocates buffers for dimension-n solves with the
// given restart length (0 = the default 50).
func NewGMRESWorkspace(n, restart int) *GMRESWorkspace {
	ws := &GMRESWorkspace{}
	ws.ensure(n, normalizeRestart(n, restart))
	return ws
}

func normalizeRestart(n, restart int) int {
	if restart == 0 {
		restart = 50
	}
	if restart > n {
		restart = n
	}
	return restart
}

// ensure grows the workspace to cover an n-dimensional solve with
// restart m; existing capacity is reused.
func (ws *GMRESWorkspace) ensure(n, m int) {
	if ws.n >= n && ws.m >= m {
		return
	}
	if n > ws.n {
		ws.n = n
	}
	if m > ws.m {
		ws.m = m
	}
	ws.v = make([][]float64, ws.m+1)
	for i := range ws.v {
		ws.v[i] = make([]float64, ws.n)
	}
	ws.h = NewDense(ws.m+1, ws.m)
	ws.cs = make([]float64, ws.m)
	ws.sn = make([]float64, ws.m)
	ws.g = make([]float64, ws.m+1)
	ws.yk = make([]float64, ws.m)
	ws.r = make([]float64, ws.n)
	ws.w = make([]float64, ws.n)
	ws.z = make([]float64, ws.n)
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

// GMRES solves A x = b with restarted GMRES(m), writing the solution into
// x (which also provides the initial guess). It allocates a fresh
// workspace; use GMRESWith to reuse one across solves.
func GMRES(a Matvec, x, b []float64, opt GMRESOptions) (GMRESResult, error) {
	return GMRESWith(nil, a, x, b, opt)
}

// GMRESWith is GMRES with caller-provided scratch: ws is grown as needed
// and reused, so steady-state solves are allocation-free. ws may be nil.
func GMRESWith(ws *GMRESWorkspace, a Matvec, x, b []float64, opt GMRESOptions) (GMRESResult, error) {
	n := a.Dim()
	if len(x) != n || len(b) != n {
		return GMRESResult{}, errors.New("linalg: GMRES dimension mismatch")
	}
	if opt.Tol == 0 {
		opt.Tol = 1e-6
	}
	opt.Restart = normalizeRestart(n, opt.Restart)
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

	m := opt.Restart
	if ws == nil {
		ws = NewGMRESWorkspace(n, m)
	} else {
		ws.ensure(n, m)
	}
	// Views at the solve's dimensions (the workspace may be larger).
	v := ws.v[:m+1]
	for i := range v {
		v[i] = ws.v[i][:n]
	}
	h := ws.h
	cs, sn := ws.cs, ws.sn
	g := ws.g[:m+1]
	r, w, z := ws.r[:n], ws.w[:n], ws.z[:n]

	total := 0
	// lastRel is the most recent relative residual estimate, reported
	// on a context interruption so an early exit still tells the caller
	// how far the last iterate got (1 = no progress beyond the guess).
	lastRel := 1.0
	for {
		if opt.Ctx != nil {
			if err := opt.Ctx.Err(); err != nil {
				return GMRESResult{Iterations: total, Residual: lastRel}, err
			}
		}
		// r = b - A x; A·0 is not worth a matvec to find out.
		if total == 0 && allZero(x) {
			copy(r, b)
		} else {
			a.Apply(r, x)
			for i := range r {
				r[i] = b[i] - r[i]
			}
		}
		beta := Norm2(r)
		rel := beta / bnorm
		lastRel = rel
		if rel <= opt.Tol {
			return GMRESResult{Iterations: total, Residual: rel, Converged: true}, nil
		}
		if total >= opt.MaxIter {
			return GMRESResult{Iterations: total, Residual: rel, Converged: false}, nil
		}
		copy(v[0], r)
		Scal(1/beta, v[0])
		for i := range g {
			g[i] = 0
		}
		g[0] = beta

		k := 0
		for ; k < m && total < opt.MaxIter; k++ {
			if opt.Ctx != nil {
				if err := opt.Ctx.Err(); err != nil {
					// Mid-cycle stop: x still holds the last restart's
					// iterate; lastRel is its Givens residual estimate.
					return GMRESResult{Iterations: total, Residual: lastRel}, err
				}
			}
			total++
			// w = A M^{-1} v_k.
			src := v[k]
			if opt.Precond != nil {
				opt.Precond(z, v[k])
				src = z
			}
			a.Apply(w, src)
			// Modified Gram-Schmidt.
			for i := 0; i <= k; i++ {
				hik := Dot(w, v[i])
				h.Set(i, k, hik)
				Axpy(-hik, v[i], w)
			}
			wn := Norm2(w)
			h.Set(k+1, k, wn)
			if wn > 0 {
				copy(v[k+1], w)
				Scal(1/wn, v[k+1])
			}
			// Apply previous Givens rotations to the new column.
			for i := 0; i < k; i++ {
				t := cs[i]*h.At(i, k) + sn[i]*h.At(i+1, k)
				h.Set(i+1, k, -sn[i]*h.At(i, k)+cs[i]*h.At(i+1, k))
				h.Set(i, k, t)
			}
			// New rotation to annihilate h(k+1, k).
			hk, hk1 := h.At(k, k), h.At(k+1, k)
			d := math.Hypot(hk, hk1)
			if d == 0 {
				return GMRESResult{Iterations: total}, ErrGMRESBreakdown
			}
			cs[k], sn[k] = hk/d, hk1/d
			h.Set(k, k, d)
			h.Set(k+1, k, 0)
			g[k+1] = -sn[k] * g[k]
			g[k] *= cs[k]
			rel = math.Abs(g[k+1]) / bnorm
			lastRel = rel
			if rel <= opt.Tol {
				k++
				break
			}
		}
		// Solve the k x k triangular system and update x.
		yk := ws.yk[:k]
		for i := k - 1; i >= 0; i-- {
			s := g[i]
			for j := i + 1; j < k; j++ {
				s -= h.At(i, j) * yk[j]
			}
			yk[i] = s / h.At(i, i)
		}
		// x += M^{-1} V y.
		for i := range w {
			w[i] = 0
		}
		for j := 0; j < k; j++ {
			Axpy(yk[j], v[j], w)
		}
		if opt.Precond != nil {
			opt.Precond(z, w)
			copy(w, z)
		}
		for i := range x {
			x[i] += w[i]
		}
		if rel <= opt.Tol {
			// Recompute the true residual for the report.
			a.Apply(r, x)
			for i := range r {
				r[i] = b[i] - r[i]
			}
			rel = Norm2(r) / bnorm
			return GMRESResult{Iterations: total, Residual: rel, Converged: rel <= opt.Tol*10}, nil
		}
	}
}
