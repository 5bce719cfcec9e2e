package linalg

import (
	"errors"
	"math"
	"runtime"

	"parbem/internal/sched"
)

// ErrNotSPD is returned when Cholesky factorization encounters a
// non-positive pivot, i.e. the matrix is not (numerically) symmetric
// positive definite.
var ErrNotSPD = errors.New("linalg: matrix is not positive definite")

// Cholesky holds the lower-triangular factor L with A = L * L^T.
type Cholesky struct {
	L *Dense
}

// cholBlock is the panel width of the blocked factorization. 48 keeps the
// working set of the trailing update within L1/L2 on typical hardware.
const cholBlock = 48

// NewCholesky factorizes the symmetric positive definite matrix A (only the
// lower triangle is read). The input is not modified.
func NewCholesky(a *Dense) (*Cholesky, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("linalg: Cholesky of non-square matrix")
	}
	n := a.Rows
	l := NewDense(n, n)
	// Copy lower triangle.
	for i := 0; i < n; i++ {
		copy(l.Row(i)[:i+1], a.Row(i)[:i+1])
	}
	if err := cholFactor(l, cholBlock); err != nil {
		return nil, err
	}
	// Zero strict upper triangle for cleanliness.
	for i := 0; i < n; i++ {
		row := l.Row(i)
		for j := i + 1; j < n; j++ {
			row[j] = 0
		}
	}
	return &Cholesky{L: l}, nil
}

// cholFactor performs a blocked right-looking Cholesky on the lower
// triangle of l in place. The O(N^3) triangular-solve and trailing-update
// phases are parallelized across row chunks. The paper's solve step
// "resorts to the standard direct method implemented in multithreaded
// linear algebra libraries" (Section 3); that library is FactorSym
// (ldlt.go) here, and this Cholesky factors the block-Jacobi near
// blocks, whose factors replicas exchange as content-addressed
// artifacts — so its arithmetic must not change.
func cholFactor(l *Dense, nb int) error {
	n := l.Rows
	workers := runtime.GOMAXPROCS(0)
	for k := 0; k < n; k += nb {
		kb := nb
		if k+kb > n {
			kb = n - k
		}
		// Factor the diagonal block (unblocked, serial).
		if err := cholUnblocked(l, k, kb); err != nil {
			return err
		}
		if k+kb == n {
			break
		}
		parallelRows(k+kb, n, workers, func(lo, hi int) {
			// Triangular solve: L21 = A21 * L11^{-T}.
			for i := lo; i < hi; i++ {
				ri := l.Row(i)
				for j := k; j < k+kb; j++ {
					rj := l.Row(j)
					s := ri[j]
					for p := k; p < j; p++ {
						s -= ri[p] * rj[p]
					}
					ri[j] = s / rj[j]
				}
			}
		})
		parallelRows(k+kb, n, workers, func(lo, hi int) {
			// Trailing update: A22 -= L21 * L21^T (lower triangle).
			for i := lo; i < hi; i++ {
				ri := l.Row(i)
				for j := k + kb; j <= i; j++ {
					rj := l.Row(j)
					var s float64
					for p := k; p < k+kb; p++ {
						s += ri[p] * rj[p]
					}
					ri[j] -= s
				}
			}
		})
	}
	return nil
}

// parallelRows runs fn over [lo, hi) in 32-row blocks on the scheduler:
// per-row work in the trailing update grows with the row index
// (triangular), so the workers claim blocks one at a time. Blocks write
// disjoint rows, so the result does not depend on who ran which. Serial
// when the range is small and the fan-out would dominate.
func parallelRows(lo, hi, workers int, fn func(lo, hi int)) {
	n := hi - lo
	if n <= 0 {
		return
	}
	if workers <= 1 || n < 128 {
		fn(lo, hi)
		return
	}
	const block = 32
	sched.Local(workers).Map((n+block-1)/block, func(b int) {
		a := lo + b*block
		fn(a, min(a+block, hi))
	})
}

// cholUnblocked factors the kb x kb diagonal block starting at (k, k).
func cholUnblocked(l *Dense, k, kb int) error {
	for j := k; j < k+kb; j++ {
		rj := l.Row(j)
		d := rj[j]
		for p := k; p < j; p++ {
			d -= rj[p] * rj[p]
		}
		if d <= 0 || math.IsNaN(d) {
			return ErrNotSPD
		}
		d = math.Sqrt(d)
		rj[j] = d
		for i := j + 1; i < k+kb; i++ {
			ri := l.Row(i)
			s := ri[j]
			for p := k; p < j; p++ {
				s -= ri[p] * rj[p]
			}
			ri[j] = s / d
		}
	}
	return nil
}

// Solve solves A x = b for a single right-hand side, writing into dst
// (dst and b may alias).
func (c *Cholesky) Solve(dst, b []float64) {
	n := c.L.Rows
	if len(b) != n || len(dst) != n {
		panic("linalg: Cholesky.Solve dimension mismatch")
	}
	if &dst[0] != &b[0] {
		copy(dst, b)
	}
	// Forward: L y = b, each row one Dot (four independent sums where a
	// running s -= ri[j]*dst[j] is one dependent chain).
	for i := 0; i < n; i++ {
		ri := c.L.Row(i)
		dst[i] = (dst[i] - Dot(ri[:i], dst[:i])) / ri[i]
	}
	// Backward: L^T x = y, by rows of L (a column of L^T is a stride-n
	// walk): x_i is final once the rows below have been taken off it.
	for i := n - 1; i >= 0; i-- {
		ri := c.L.Row(i)
		dst[i] /= ri[i]
		Axpy(-dst[i], ri[:i], dst[:i])
	}
}
