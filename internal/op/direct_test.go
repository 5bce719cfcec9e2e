package op

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"parbem/internal/linalg"
)

// directSolve solves P X = Phi through a NewFromDense pipeline on a copy
// of P, returning the charges and what the factorization found.
func directSolve(p, phi *linalg.Dense) (*linalg.Dense, linalg.Inertia, error) {
	pl, err := NewFromDense(p.Clone(), Options{Direct: true})
	if err != nil {
		return nil, linalg.Inertia{}, err
	}
	res, err := pl.ExtractRHS(phi)
	if err != nil {
		return nil, linalg.Inertia{}, err
	}
	return res.Rho, res.Inertia, nil
}

func TestSolveSPDOnSPDMatrix(t *testing.T) {
	// Well-conditioned SPD with wildly varying diagonal scales: the
	// equilibrated factorization must solve it, and leave Phi alone.
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
	phiBefore := phi.Clone()
	x, in, err := directSolve(P, phi)
	if err != nil {
		t.Fatal(err)
	}
	if in != (linalg.Inertia{}) {
		t.Errorf("SPD matrix reported inertia %+v", in)
	}
	if linalg.MaxAbsDiff(phi, phiBefore) != 0 {
		t.Error("the direct solve modified its right-hand sides")
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
	x, in, err := directSolve(P, phi)
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
	x, in, err := directSolve(P, phi)
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
	x, _, err := directSolve(P, phi)
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
		x, _, err := directSolve(tc.p, tc.phi)
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

// bitwiseEqual reports whether a and b hold the same bits.
func bitwiseEqual(a, b *linalg.Dense) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// TestNewFromDenseFactorsOnce pins the ownership contract of NewFromDense:
// the matrix is factored in place when the pipeline is built, so it is no
// longer the system matrix, and every ExtractRHS after that, sequential
// or concurrent, solves against the one factor to the same bits.
func TestNewFromDenseFactorsOnce(t *testing.T) {
	p, phi := templateSystem(4, 4)
	m := p.Dense()
	pl, err := NewFromDense(m, Options{Direct: true})
	if err != nil {
		t.Fatal(err)
	}
	if bitwiseEqual(m, p.Dense()) {
		t.Error("NewFromDense left its matrix as it was: nothing was factored in place")
	}
	first, err := pl.ExtractRHS(phi)
	if err != nil {
		t.Fatal(err)
	}
	second, err := pl.ExtractRHS(phi)
	if err != nil {
		t.Fatal(err)
	}
	if !bitwiseEqual(second.C, first.C) {
		t.Error("a second ExtractRHS changed C")
	}
	var wg sync.WaitGroup
	cs := make([]*linalg.Dense, 4)
	errs := make([]error, len(cs))
	for k := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := pl.ExtractRHS(phi)
			if errs[k] = err; err == nil {
				cs[k] = res.C
			}
		}()
	}
	wg.Wait()
	for k, c := range cs {
		if errs[k] != nil {
			t.Fatalf("concurrent ExtractRHS %d: %v", k, errs[k])
		}
		if !bitwiseEqual(c, first.C) {
			t.Errorf("concurrent ExtractRHS %d: C differs from the sequential one", k)
		}
	}
}

// TestNewFromDensePacksInPlace pins what the full-matrix wrapper costs: at
// N = 704 (the 16x16 bus's size) NewFromDense packs its matrix's lower
// triangle inside the matrix's own storage and factors it there, so it
// allocates the factorization's workspace and nothing of the matrix's size
// (under 0.15 x 8N²), and its C is bitwise NewFromSym's on the packed
// matrix. A singular or NaN packed matrix is an error wrapping
// linalg.ErrSingular, as a dense one is.
func TestNewFromDensePacksInPlace(t *testing.T) {
	const n = 704
	p := linalg.NewSym(n)
	for i := 0; i < n; i++ {
		row := p.Row(i)
		for j := range row {
			row[j] = 1 / float64(1+i-j)
		}
		row[i] = 2
	}
	phi := linalg.NewDense(n, 4)
	for i := 0; i < n; i++ {
		phi.Set(i, i%4, 1)
	}
	dense := p.Dense()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pd, err := NewFromDense(dense, Options{Direct: true})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if alloc, bound := float64(after.TotalAlloc-before.TotalAlloc), 0.15*8*n*n; alloc > bound {
		t.Errorf("NewFromDense allocated %.0f bytes at N = %d, over 0.15 x 8N² = %.0f: a copy of the matrix", alloc, n, bound)
	}
	ps, err := NewFromSym(p, Options{Direct: true})
	if err != nil {
		t.Fatal(err)
	}
	cd, err := pd.ExtractRHS(phi)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := ps.ExtractRHS(phi)
	if err != nil {
		t.Fatal(err)
	}
	if !bitwiseEqual(cd.C, cs.C) {
		t.Error("NewFromDense's C differs from NewFromSym's on the same matrix")
	}
	for name, data := range map[string][]float64{"singular": {1, 2, 4}, "NaN": {2, math.NaN(), 2}} {
		if _, err := NewFromSym(&linalg.Sym{N: 2, Data: data}, Options{Direct: true}); !errors.Is(err, linalg.ErrSingular) {
			t.Errorf("%s packed matrix: err = %v, want linalg.ErrSingular", name, err)
		}
	}
}

// TestDirectPlanMatrixUnchanged pins the other half of the contract: a
// dense direct pipeline over a prebuilt matrix factors a packed copy, so the
// matrix a plan keeps — and rewrites in place for its next variant — is
// the system matrix, never a factor, after any number of solves.
func TestDirectPlanMatrixUnchanged(t *testing.T) {
	spec := busSpec(t, 2, 2, 1e-6).withDefaults()
	m := spec.AssembleDense()
	keep := m.Dense()
	pl, err := NewPrebuilt(spec, Options{Backend: BackendDense, Direct: true}, Prebuilt{Dense: m})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 2; k++ {
		if _, err := pl.ExtractWarmCtx(context.Background(), nil); err != nil {
			t.Fatal(err)
		}
		if !bitwiseEqual(m.Dense(), keep) {
			t.Fatalf("solve %d changed the prebuilt matrix", k)
		}
	}
}

// TestReduceMatchesMul pins Reduce bitwise to Mul(Phiᵀ, X) followed by the
// same symmetrization: both add the products of each entry in k order,
// zero coefficients included, on inputs with exact zeros in both factors.
func TestReduceMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, sz := range [][2]int{{1, 1}, {7, 3}, {130, 5}, {300, 64}, {90, 70}} {
		N, n := sz[0], sz[1]
		phi, x := linalg.NewDense(N, n), linalg.NewDense(N, n)
		for _, m := range []*linalg.Dense{phi, x} {
			for i := range m.Data {
				if rng.Intn(3) > 0 { // a third of the entries stay exact zeros
					m.Data[i] = rng.NormFloat64()
				}
			}
		}
		// A zero coefficient against an infinite charge: Mul makes the
		// entry NaN, and so must Reduce.
		phi.Set(0, 0, 0)
		x.Set(0, 0, math.Inf(1))
		want := linalg.NewDense(n, n)
		linalg.Mul(want, phi.Transpose(), x)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v := 0.5 * (want.At(i, j) + want.At(j, i))
				want.Set(i, j, v)
				want.Set(j, i, v)
			}
		}
		got := Reduce(phi, x)
		for i, v := range got.Data {
			if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
				t.Fatalf("%dx%d: entry %d is %v, Mul(Phiᵀ, X) gives %v", N, n, i, v, want.Data[i])
			}
		}
	}
}
