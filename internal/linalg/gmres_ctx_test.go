package linalg

import (
	"context"
	"errors"
	"testing"
	"time"
)

// slowOp wraps a dense operator with a per-apply delay, so a context
// deadline reliably lands in the middle of the Arnoldi loop.
type slowOp struct {
	d     *Dense
	delay time.Duration
}

func (s slowOp) Apply(dst, x []float64) {
	time.Sleep(s.delay)
	s.d.MulVec(dst, x)
}

func (s slowOp) Dim() int { return s.d.Rows }

// lap1d builds the 1-D Laplacian tridiag(-1, 2, -1): well conditioned
// enough to converge, slow enough (≈n iterations at tight tolerance)
// that a mid-solve deadline has iterations to interrupt.
func lap1d(n int) *Dense {
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 2)
		if i > 0 {
			a.Set(i, i-1, -1)
		}
		if i < n-1 {
			a.Set(i, i+1, -1)
		}
	}
	return a
}

// TestGMRESContextCheckpoints pins the per-iteration deadline
// checkpoint: a deadline expiring mid-solve stops GMRES within the
// next iteration — partial iteration count reported, ctx error
// returned — instead of running the solve to completion.
func TestGMRESContextCheckpoints(t *testing.T) {
	const n = 64
	a := lap1d(n)
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}

	// Undeadlined reference: how many iterations the solve needs (full
	// GMRES, no restart — the 1-D Laplacian takes ≈n of them).
	x := make([]float64, n)
	ref, err := GMRESWith(nil, denseOp{a}, x, b, GMRESOptions{Tol: 1e-10, Restart: n})
	if err != nil || !ref.Converged {
		t.Fatalf("reference solve: %+v, %v", ref, err)
	}
	if ref.Iterations < 10 {
		t.Fatalf("reference converged in %d iterations; too fast to interrupt", ref.Iterations)
	}

	// With ~1ms per matvec and an 8ms deadline, the solve must stop
	// long before the reference iteration count.
	op := slowOp{d: a, delay: time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Millisecond)
	defer cancel()
	x2 := make([]float64, n)
	res, err := GMRESWith(nil, op, x2, b, GMRESOptions{Tol: 1e-10, Restart: n, Ctx: ctx})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadlined solve returned %v, want context.DeadlineExceeded", err)
	}
	if res.Iterations <= 0 || res.Iterations >= ref.Iterations {
		t.Errorf("interrupted after %d iterations, want in (0, %d): the checkpoint fired at the wrong time",
			res.Iterations, ref.Iterations)
	}

	// A context already done is observed before any work.
	done, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	x3 := make([]float64, n)
	res, err = GMRESWith(nil, denseOp{a}, x3, b, GMRESOptions{Tol: 1e-10, Ctx: done})
	if !errors.Is(err, context.Canceled) || res.Iterations != 0 {
		t.Errorf("pre-cancelled solve ran %d iterations with err %v, want 0 and context.Canceled",
			res.Iterations, err)
	}
}
