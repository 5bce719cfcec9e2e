package pcbem

import (
	"testing"

	"parbem/internal/assembly"
	"parbem/internal/geom"
	"parbem/internal/linalg"
	"parbem/internal/op"
	"parbem/internal/sched"
)

// TestAssembleDenseMatchesEntries pins the parallel symmetric fill to
// the entry definition: every (i, j) must equal Entry(i, j) computed
// directly, independent of the executor.
func TestAssembleDenseMatchesEntries(t *testing.T) {
	p, err := NewProblem(geom.DefaultCrossingPair().Build(), 2e-6)
	if err != nil {
		t.Fatal(err)
	}
	pool := sched.NewPool(4)
	defer pool.Close()
	for _, ex := range []sched.Executor{nil, sched.Local(1), sched.Local(7), pool} {
		p.Par = ex
		spec := p.Spec()
		m := spec.AssembleDense()
		n := spec.N()
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				if got, want := m.At(i, j), spec.Entry(i, j); got != want {
					t.Fatalf("executor %T: P[%d][%d] = %g, want %g", ex, i, j, got, want)
				}
				// Lower triangle is mirrored from the upper (the
				// quadrature is not bit-symmetric in argument order).
				if got := m.At(j, i); got != m.At(i, j) {
					t.Fatalf("executor %T: P[%d][%d] not mirrored", ex, j, i)
				}
			}
		}
	}
}

func TestTriangularRowBounds(t *testing.T) {
	for _, n := range []int{1, 2, 63, 64, 100, 1000} {
		bounds := op.TriangularRowBounds(n, 64)
		if bounds[0] != 0 || bounds[len(bounds)-1] != n {
			t.Fatalf("n=%d: bounds %v do not cover [0,%d)", n, bounds, n)
		}
		for k := 1; k < len(bounds); k++ {
			if bounds[k] <= bounds[k-1] {
				t.Fatalf("n=%d: bounds %v not strictly increasing", n, bounds)
			}
		}
	}
}

// TestSolveIterativeConcurrentColumnsDeterministic: the multi-RHS solve
// returns the same capacitance matrix, to the bit, and the same iteration
// total on every run and at 1, 2 and 4 workers. The columns are solved in
// index order in one search space, so the only parallelism is the
// operator's own — and the row-blocked dense matvec computes each row with
// one Dot whoever runs it. (The columns used to be concurrent and
// independent; the name is kept for the test's history.)
func TestSolveIterativeConcurrentColumnsDeterministic(t *testing.T) {
	p, err := NewProblem(geom.DefaultBus(3, 3).Build(), 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	base := p.Spec()
	m := base.AssembleDense()
	var first *op.Result
	for _, workers := range []int{1, 1, 2, 4} {
		p.Par = sched.Local(workers)
		spec := p.Spec()
		if spec.N()*spec.N() < linalg.DenseOpParCutoff {
			t.Fatalf("N=%d: the matvec would not fan out", spec.N())
		}
		res := solveIterative(t, spec, linalg.DenseOp{M: m, Exec: spec.Exec}, 1e-8)
		if first == nil {
			first = res
			continue
		}
		if res.Iterations != first.Iterations {
			t.Fatalf("%d workers: %d iterations, first run %d", workers, res.Iterations, first.Iterations)
		}
		for i := 0; i < res.C.Rows; i++ {
			for j := 0; j < res.C.Cols; j++ {
				if res.C.At(i, j) != first.C.At(i, j) {
					t.Fatalf("%d workers: C[%d][%d] differs from the first run's", workers, i, j)
				}
			}
		}
	}
}

// BenchmarkAssembleDense is one cold dense assembly per iteration: each
// Spec brings a class table of its own, so every class of the 4x4 bus is
// integrated once and every other pair is a lookup.
func BenchmarkAssembleDense(b *testing.B)       { benchAssembleDense(b, nil) }
func BenchmarkAssembleDenseSerial(b *testing.B) { benchAssembleDense(b, sched.Local(1)) }

func benchAssembleDense(b *testing.B, ex sched.Executor) {
	p, err := NewProblem(geom.DefaultBus(4, 4).Build(), 1e-6)
	if err != nil {
		b.Fatal(err)
	}
	p.Par = ex
	var fill assembly.FillStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := p.Spec()
		_, _, fill = spec.AssembleDenseReuse(nil, nil)
	}
	b.ReportMetric(float64(fill.ClassesIntegrated), "classes/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(fill.PairsFar+fill.PairsNear), "ns/pair")
}

// BenchmarkSolveIterativeMultiRHS measures the per-conductor Krylov solves
// over the dense operator, one search space for all of them.
func BenchmarkSolveIterativeMultiRHS(b *testing.B) {
	p, err := NewProblem(geom.DefaultBus(4, 4).Build(), 1.5e-6)
	if err != nil {
		b.Fatal(err)
	}
	spec := p.Spec()
	a := denseOp(spec)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solveIterative(b, spec, a, 1e-6)
	}
}
