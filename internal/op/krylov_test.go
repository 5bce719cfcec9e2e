package op

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"parbem/internal/geom"
	"parbem/internal/linalg"
	"parbem/internal/sched"
)

// crossingSpec panelizes the default crossing pair.
func crossingSpec(tb testing.TB, edge float64) Spec {
	tb.Helper()
	st := geom.DefaultCrossingPair().Build()
	return Spec{Panels: st.Panelize(edge), NumConductors: st.NumConductors()}
}

// hookOp is a dense matvec that calls hook with the number of the
// application about to run.
type hookOp struct {
	Operator
	applies *int
	hook    func(k int)
}

func (h hookOp) Apply(dst, x []float64) {
	*h.applies++
	h.hook(*h.applies)
	h.Operator.Apply(dst, x)
}

// colResidual is |phi_j - M rho_j| / |phi_j|.
func colResidual(m Operator, phi, rho *linalg.Dense, j int) float64 {
	n := m.Dim()
	b, x, r := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		b[i], x[i] = phi.At(i, j), rho.At(i, j)
	}
	m.Apply(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	return linalg.Norm2(r) / linalg.Norm2(b)
}

// TestInterruptedReportsItsIterate: a solve cancelled mid-column returns
// the iterate its residual describes. The crossing pair has two columns,
// solved in order; the context is cancelled inside a chosen operator
// application, which the solve finishes (x and r move together) before the
// next checkpoint stops it. Cancelled in the second column, the first
// carries its converged solution and the reported residual is the second's,
// the true residual of the partial charges to 1e-10; cancelled in the
// first, the second is untouched zeros and the report is 1 — no progress
// on a column not started — whatever the first had reached.
func TestInterruptedReportsItsIterate(t *testing.T) {
	spec := crossingSpec(t, 1e-6).withDefaults()
	m := NewDenseOperator(spec.AssembleDense(), spec.Panels, nil)
	phi := spec.RHS()
	const tol = 1e-6

	run := func(cancelAt int) (*Result, error, int) {
		applies := 0
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		a := hookOp{m, &applies, func(k int) {
			if k == cancelAt {
				cancel()
			}
		}}
		pl, err := NewWithOperator(spec, a, Options{Tol: tol})
		if err != nil {
			t.Fatal(err)
		}
		res, err := pl.ExtractWarmCtx(ctx, nil)
		return res, err, applies
	}
	// What the first column costs alone: its iterations and its residual
	// check. The columns are solved in order, so that is also where the
	// second one starts.
	full, err, _ := run(0)
	if err != nil {
		t.Fatal(err)
	}
	first := 0
	{
		applies := 0
		pl, err := NewWithOperator(spec, hookOp{m, &applies, func(int) {}}, Options{Tol: tol})
		if err != nil {
			t.Fatal(err)
		}
		one := linalg.NewDense(phi.Rows, 1)
		for i := 0; i < phi.Rows; i++ {
			one.Set(i, 0, phi.At(i, 0))
		}
		if _, err := pl.ExtractRHS(one); err != nil {
			t.Fatal(err)
		}
		first = applies
	}
	if first < 6 || full.Applies < first+6 {
		t.Fatalf("columns cost %d of %d applications: too few to interrupt", first, full.Applies)
	}

	for _, tc := range []struct {
		name     string
		cancelAt int
		inFlight int
	}{
		{"second column", first + 4, 1},
		{"first column", 4, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err, applies := run(tc.cancelAt)
			var oi *Interrupted
			if !errors.As(err, &oi) || !errors.Is(err, context.Canceled) {
				t.Fatalf("want *Interrupted wrapping context.Canceled, got %v", err)
			}
			if applies != tc.cancelAt {
				t.Errorf("solve ran %d applications after a cancel inside number %d", applies, tc.cancelAt)
			}
			if oi.Partial == nil || oi.PartialC == nil {
				t.Fatal("no partial result")
			}
			got := colResidual(m, phi, oi.Partial, tc.inFlight)
			if tc.inFlight == 1 {
				if oi.Iterations != first-1+4 {
					t.Errorf("%d iterations, want the first column's %d and 4", oi.Iterations, first-1)
				}
				if math.Abs(got-oi.Residual) > 1e-10 || got >= 1 || got <= tol {
					t.Errorf("reported residual %.12e, the partial charges have %.12e", oi.Residual, got)
				}
				if r0 := colResidual(m, phi, oi.Partial, 0); r0 > 10*tol {
					t.Errorf("first column does not carry its solution: residual %g", r0)
				}
				return
			}
			if oi.Iterations != 4 || oi.Residual != 1 {
				t.Errorf("%d iterations, residual %g; want 4 and 1 (a column was not started)", oi.Iterations, oi.Residual)
			}
			if got >= 1 {
				t.Errorf("column in flight made no progress: residual %g", got)
			}
			for i := 0; i < oi.Partial.Rows; i++ {
				if oi.Partial.At(i, 1) != 0 {
					t.Fatalf("column not started holds %g at row %d", oi.Partial.At(i, 1), i)
				}
			}
		})
	}
}

// overlapOp counts how many of its applications are in flight at once.
type overlapOp struct {
	Operator
	inFlight, worst *atomic.Int32
}

func (o overlapOp) Apply(dst, x []float64) {
	n := o.inFlight.Add(1)
	for w := o.worst.Load(); n > w && !o.worst.CompareAndSwap(w, n); w = o.worst.Load() {
	}
	runtime.Gosched() // let a concurrent column in, if there is one
	o.Operator.Apply(dst, x)
	o.inFlight.Add(-1)
}

// TestSolveKeepsToItsExecutor: a solve spawns nothing — six right-hand
// sides on an executor of width 1 never have two operator applications in
// flight (one goroutine per conductor applied the operator six at a time,
// whatever the worker budget said).
func TestSolveKeepsToItsExecutor(t *testing.T) {
	spec := busSpec(t, 3, 3, 1.5e-6).withDefaults()
	spec.Exec = sched.Local(1)
	var inFlight, worst atomic.Int32
	a := overlapOp{NewDenseOperator(spec.AssembleDense(), spec.Panels, spec.Exec), &inFlight, &worst}
	pl, err := NewWithOperator(spec, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := extract(pl)
	if err != nil {
		t.Fatal(err)
	}
	if worst.Load() != 1 {
		t.Errorf("%d operator applications in flight at once on an executor of width 1", worst.Load())
	}
	if res.Applies < res.Iterations+spec.NumConductors {
		t.Errorf("%d applications for %d iterations and %d residual checks", res.Applies, res.Iterations, spec.NumConductors)
	}
}
