package op

import (
	"errors"
	"math"
	"strings"
	"testing"

	"parbem/internal/linalg"
)

func TestSolveSPDOnSPDMatrix(t *testing.T) {
	// Well-conditioned SPD with wildly varying diagonal scales: the
	// equilibrated factorization must solve it, and leave it alone.
	n := 40
	P := linalg.NewDense(n, n)
	for i := 0; i < n; i++ {
		scale := math.Pow(10, float64(i%8)-4)
		P.Set(i, i, scale)
		if i > 0 {
			c := 0.1 * math.Sqrt(P.At(i, i)*P.At(i-1, i-1))
			P.Set(i, i-1, c)
			P.Set(i-1, i, c)
		}
	}
	phi := linalg.NewDense(n, 2)
	for i := 0; i < n; i++ {
		phi.Set(i, 0, 1)
		phi.Set(i, 1, float64(i))
	}
	before, phiBefore := P.Clone(), phi.Clone()
	x, in, err := solveSym(P, phi)
	if err != nil {
		t.Fatal(err)
	}
	if in != (linalg.Inertia{}) {
		t.Errorf("SPD matrix reported inertia %+v", in)
	}
	if linalg.MaxAbsDiff(P, before) != 0 || linalg.MaxAbsDiff(phi, phiBefore) != 0 {
		t.Error("SolveSPD modified its input")
	}
	// Verify P x = phi.
	for j := 0; j < 2; j++ {
		col := make([]float64, n)
		for i := 0; i < n; i++ {
			col[i] = x.At(i, j)
		}
		got := make([]float64, n)
		P.MulVec(got, col)
		for i := 0; i < n; i++ {
			if math.Abs(got[i]-phi.At(i, j)) > 1e-8*math.Max(1, math.Abs(phi.At(i, j))) {
				t.Fatalf("residual at (%d,%d): %g vs %g", i, j, got[i], phi.At(i, j))
			}
		}
	}
}

func TestSolveSPDOnIndefinite(t *testing.T) {
	// Symmetric indefinite (one negative eigenvalue): no Cholesky
	// exists, the pivoted factorization solves it and says so.
	P := linalg.NewDenseFrom(2, 2, []float64{1, 2, 2, 1})
	phi := linalg.NewDenseFrom(2, 1, []float64{3, 0})
	x, in, err := solveSym(P, phi)
	if err != nil {
		t.Fatal(err)
	}
	// Exact solution: x = [-1, 2].
	if math.Abs(x.At(0, 0)+1) > 1e-12 || math.Abs(x.At(1, 0)-2) > 1e-12 {
		t.Fatalf("solution [%g %g], want [-1 2]", x.At(0, 0), x.At(1, 0))
	}
	if in.Negative != 1 {
		t.Errorf("inertia %+v, want one negative pivot", in)
	}
}

func TestSolveSPDZeroDiagonalTakes2x2Pivot(t *testing.T) {
	// A zero diagonal offers no 1x1 pivot and nothing to equilibrate
	// by: the scale falls back to 1 and the pivot is the 2x2 block.
	P := linalg.NewDenseFrom(2, 2, []float64{0, 1, 1, 0})
	phi := linalg.NewDenseFrom(2, 1, []float64{5, 7})
	x, in, err := solveSym(P, phi)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x.At(0, 0)-7) > 1e-12 || math.Abs(x.At(1, 0)-5) > 1e-12 {
		t.Fatalf("solution [%g %g], want [7 5]", x.At(0, 0), x.At(1, 0))
	}
	if in != (linalg.Inertia{Negative: 1, Blocks2x2: 1}) {
		t.Errorf("inertia %+v, want one 2x2 block with one negative eigenvalue", in)
	}
}

func TestSolveSPDNegativeDiagonalStillEquilibrates(t *testing.T) {
	// diag(-4, 9) with a small coupling: scaling by |d| keeps the
	// system and its solution, [[-4,1],[1,9]] x = [-2, 19] at x = [1, 2].
	P := linalg.NewDenseFrom(2, 2, []float64{-4, 1, 1, 9})
	phi := linalg.NewDenseFrom(2, 1, []float64{-2, 19})
	x, err := SolveSPD(P, phi)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x.At(0, 0)-1) > 1e-12 || math.Abs(x.At(1, 0)-2) > 1e-12 {
		t.Fatalf("solution [%g %g], want [1 2]", x.At(0, 0), x.At(1, 0))
	}
}

func TestSolveSPDSingularAndNonFiniteError(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(-1)
	ones := linalg.NewDenseFrom(2, 1, []float64{1, 1})
	spd := []float64{2, 1, 1, 2}
	for name, tc := range map[string]struct{ p, phi *linalg.Dense }{
		"all zero":      {linalg.NewDense(2, 2), ones},
		"rank one":      {linalg.NewDenseFrom(2, 2, []float64{1, 2, 2, 4}), ones},
		"NaN diagonal":  {linalg.NewDenseFrom(2, 2, []float64{nan, 1, 1, 2}), ones},
		"NaN coupling":  {linalg.NewDenseFrom(2, 2, []float64{2, nan, nan, 2}), ones},
		"Inf diagonal":  {linalg.NewDenseFrom(2, 2, []float64{2, 1, 1, inf}), ones},
		"Inf coupling":  {linalg.NewDenseFrom(2, 2, []float64{2, inf, inf, 2}), ones},
		"NaN in Phi":    {linalg.NewDenseFrom(2, 2, spd), linalg.NewDenseFrom(2, 1, []float64{1, nan})},
		"Inf in Phi":    {linalg.NewDenseFrom(2, 2, spd), linalg.NewDenseFrom(2, 1, []float64{inf, 1})},
		"singular 2x2 ": {linalg.NewDenseFrom(3, 3, []float64{0, 1, 1, 1, 0, 1, 1, 1, 2}), linalg.NewDense(3, 1)},
	} {
		x, err := SolveSPD(tc.p, tc.phi)
		if !errors.Is(err, linalg.ErrSingular) {
			t.Errorf("%s: x = %v, err = %v, want linalg.ErrSingular", name, x, err)
			continue
		}
		if !strings.HasPrefix(err.Error(), "op: ") {
			t.Errorf("%s: error %q does not say where it came from", name, err)
		}
		if !strings.Contains(name, "Phi") && !strings.Contains(err.Error(), "system matrix unsolvable") {
			t.Errorf("%s: error %q lost its wrapping", name, err)
		}
		if !strings.Contains(name, "Phi") && !strings.Contains(err.Error(), "index") {
			t.Errorf("%s: error %q does not name the pivot", name, err)
		}
	}
}
