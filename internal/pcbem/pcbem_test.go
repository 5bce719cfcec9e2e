package pcbem

import (
	"context"
	"math"
	"testing"

	"parbem/internal/geom"
	"parbem/internal/kernel"
	"parbem/internal/linalg"
	"parbem/internal/op"
	"parbem/internal/plan"
)

// solveDense is the dense direct extraction of st on a throwaway plan.
func solveDense(t *testing.T, st *geom.Structure, maxEdge float64) *plan.Result {
	t.Helper()
	pl, err := plan.New(plan.Options{MaxEdge: maxEdge,
		Pipeline: op.Options{Backend: op.BackendDense, Direct: true}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := pl.Extract(st)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// solveIterative runs the pipeline's multi-RHS Krylov solve over the
// assembled matrix as a plain matvec (point-Jacobi preconditioned: a
// linalg.DenseOp exposes no near blocks).
func solveIterative(tb testing.TB, spec op.Spec, a linalg.Matvec, tol float64) *op.Result {
	tb.Helper()
	pl, err := op.NewWithOperator(spec, a, op.Options{Tol: tol})
	if err != nil {
		tb.Fatal(err)
	}
	res, err := pl.ExtractWarmCtx(context.Background(), nil)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// denseOp assembles spec's matrix as a matvec on spec's executor.
func denseOp(spec op.Spec) linalg.Matvec {
	return linalg.DenseOp{M: spec.AssembleDense(), Exec: spec.Exec}
}

func plateStructure(side, gap, thick float64) *geom.Structure {
	return &geom.Structure{
		Name: "plates",
		Conductors: []*geom.Conductor{
			{Name: "bot", Boxes: []geom.Box{geom.NewBox(
				geom.Vec3{X: 0, Y: 0, Z: 0}, geom.Vec3{X: side, Y: side, Z: thick})}},
			{Name: "top", Boxes: []geom.Box{geom.NewBox(
				geom.Vec3{X: 0, Y: 0, Z: thick + gap}, geom.Vec3{X: side, Y: side, Z: 2*thick + gap})}},
		},
	}
}

func TestParallelPlateConvergence(t *testing.T) {
	side, gap := 10e-6, 1e-6
	ideal := kernel.Eps0 * side * side / gap
	var prev float64
	for i, maxEdge := range []float64{5e-6, 2.5e-6} {
		res := solveDense(t, plateStructure(side, gap, 0.5e-6), maxEdge)
		c := -res.C.At(0, 1)
		ratio := c / ideal
		if ratio < 1.0 || ratio > 2.0 {
			t.Errorf("edge %g: C/ideal = %.3f outside [1, 2]", maxEdge, ratio)
		}
		if i > 0 {
			// Refinement must increase extracted coupling (better edge
			// resolution captures charge crowding).
			if c < prev*0.98 {
				t.Errorf("refinement reduced C: %g -> %g", prev, c)
			}
		}
		prev = c
	}
}

func TestDenseMatrixSPDAndSymmetric(t *testing.T) {
	p, err := NewProblem(geom.DefaultCrossingPair().Build(), 2e-6)
	if err != nil {
		t.Fatal(err)
	}
	spec := p.Spec()
	P := spec.AssembleDense()
	if e := P.SymmetryError(); e > 0 {
		t.Errorf("symmetry error %g", e)
	}
	f, err := linalg.FactorSym(linalg.PackLower(P))
	if err != nil {
		t.Fatalf("panel Galerkin matrix not SPD: %v", err)
	}
	if in := f.Inertia(); in.Negative != 0 {
		t.Errorf("panel Galerkin matrix not SPD: inertia %+v", in)
	}
}

func TestIterativeMatchesDense(t *testing.T) {
	st := geom.DefaultCrossingPair().Build()
	p, err := NewProblem(st, 2e-6)
	if err != nil {
		t.Fatal(err)
	}
	direct := solveDense(t, st, 2e-6)
	iter := solveIterative(t, p.Spec(), denseOp(p.Spec()), 1e-8)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			a, b := direct.C.At(i, j), iter.C.At(i, j)
			if rel := math.Abs(a-b) / math.Abs(a); rel > 1e-5 {
				t.Errorf("C[%d][%d]: direct %g iterative %g", i, j, a, b)
			}
		}
	}
	if iter.Iterations <= 0 {
		t.Error("no iterations recorded")
	}
}

func TestChargeConservationSign(t *testing.T) {
	// With conductor 0 at 1V and conductor 1 grounded, panels on
	// conductor 0 carry net positive charge, conductor 1 net negative.
	res := solveDense(t, geom.DefaultCrossingPair().Build(), 1e-6)
	var q0, q1 float64
	for i, pan := range res.Panels {
		q := res.Rho.At(i, 0) * pan.Area()
		if pan.Conductor == 0 {
			q0 += q
		} else {
			q1 += q
		}
	}
	if q0 <= 0 {
		t.Errorf("driven conductor net charge %g <= 0", q0)
	}
	if q1 >= 0 {
		t.Errorf("grounded conductor net charge %g >= 0", q1)
	}
	if math.Abs(q1) >= q0 {
		t.Errorf("induced |charge| %g exceeds source %g", q1, q0)
	}
}

func TestPanelCountGrowsWithRefinement(t *testing.T) {
	st := geom.DefaultCrossingPair().Build()
	p1, _ := NewProblem(st, 2e-6)
	p2, _ := NewProblem(st, 0.5e-6)
	if len(p2.Panels) <= len(p1.Panels) {
		t.Errorf("refinement did not grow panels: %d vs %d", len(p1.Panels), len(p2.Panels))
	}
}
