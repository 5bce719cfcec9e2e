package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomSPD(n int, rng *rand.Rand) *Dense {
	// A = B^T B + n*I is SPD.
	b := NewDense(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	a := NewDense(n, n)
	Mul(a, b.Transpose(), b)
	for i := 0; i < n; i++ {
		a.Add(i, i, float64(n))
	}
	return a
}

func TestDenseBasics(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	m.Add(1, 2, 1)
	if m.At(0, 0) != 1 || m.At(1, 2) != 6 {
		t.Fatal("At/Set/Add broken")
	}
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 || tr.At(2, 1) != 6 {
		t.Fatal("Transpose broken")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) == 9 {
		t.Fatal("Clone aliases")
	}
	x := []float64{1, 2, 3}
	dst := make([]float64, 2)
	m.MulVec(dst, x)
	if dst[0] != 1 || dst[1] != 18 {
		t.Fatalf("MulVec = %v", dst)
	}
}

func TestMulAgainstManual(t *testing.T) {
	a := NewDenseFrom(2, 2, []float64{1, 2, 3, 4})
	b := NewDenseFrom(2, 2, []float64{5, 6, 7, 8})
	c := NewDense(2, 2)
	Mul(c, a, b)
	want := []float64{19, 22, 43, 50}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("Mul = %v, want %v", c.Data, want)
		}
	}
}

func TestVectorHelpers(t *testing.T) {
	x := []float64{3, 4}
	if Norm2(x) != 5 {
		t.Fatal("Norm2")
	}
	y := []float64{1, 1}
	Axpy(2, x, y)
	if y[0] != 7 || y[1] != 9 {
		t.Fatal("Axpy")
	}
	Scal(0.5, y)
	if y[0] != 3.5 {
		t.Fatal("Scal")
	}
	if Dot(x, x) != 25 {
		t.Fatal("Dot")
	}
}

func TestCholeskySolve(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 5, 20, 100, 257} {
		a := randomSPD(n, rng)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// Check A = L L^T.
		rec := NewDense(n, n)
		Mul(rec, ch.L, ch.L.Transpose())
		if d := MaxAbsDiff(rec, a); d > 1e-8*float64(n) {
			t.Errorf("n=%d: |LL^T - A| = %g", n, d)
		}
		// Check solve.
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := make([]float64, n)
		a.MulVec(b, want)
		got := make([]float64, n)
		ch.Solve(got, b)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-8 {
				t.Errorf("n=%d: x[%d] = %g want %g", n, i, got[i], want[i])
				break
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewDenseFrom(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, err := NewCholesky(a); err != ErrNotSPD {
		t.Fatalf("err = %v, want ErrNotSPD", err)
	}
	if _, err := NewCholesky(NewDense(2, 3)); err == nil {
		t.Fatal("non-square accepted")
	}
}

func TestQRLeastSquares(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m, n := 50, 8
	a := NewDense(m, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	want := make([]float64, n)
	for i := range want {
		want[i] = rng.NormFloat64()
	}
	b := make([]float64, m)
	a.MulVec(b, want)
	f, err := NewQR(a)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.LeastSquares(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("x[%d] = %g want %g", i, got[i], want[i])
		}
	}
}

func TestQROverdeterminedResidualOrthogonality(t *testing.T) {
	// For LS solution, residual must be orthogonal to the column space.
	rng := rand.New(rand.NewSource(5))
	m, n := 30, 5
	a := NewDense(m, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	b := make([]float64, m)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	f, err := NewQR(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.LeastSquares(b)
	if err != nil {
		t.Fatal(err)
	}
	r := make([]float64, m)
	a.MulVec(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	at := a.Transpose()
	proj := make([]float64, n)
	at.MulVec(proj, r)
	if nrm := Norm2(proj); nrm > 1e-9 {
		t.Fatalf("residual not orthogonal to range(A): |A^T r| = %g", nrm)
	}
}

func TestGMRESDense(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 60
	a := randomSPD(n, rng)
	want := make([]float64, n)
	for i := range want {
		want[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	a.MulVec(b, want)
	x := make([]float64, n)
	res, err := GMRES(DenseOp{M: a}, x, b, GMRESOptions{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	for i := range x {
		if math.Abs(x[i]-want[i]) > 1e-6 {
			t.Fatalf("x[%d] = %g want %g", i, x[i], want[i])
		}
	}
}

func TestGMRESRestartedAndPreconditioned(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 80
	a := randomSPD(n, rng)
	want := make([]float64, n)
	for i := range want {
		want[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	a.MulVec(b, want)

	// Small restart forces the restart path.
	x := make([]float64, n)
	res, err := GMRES(DenseOp{M: a}, x, b, GMRESOptions{Tol: 1e-9, Restart: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("restarted GMRES did not converge: %+v", res)
	}

	// Jacobi preconditioner must not change the answer.
	diag := make([]float64, n)
	for i := 0; i < n; i++ {
		diag[i] = a.At(i, i)
	}
	x2 := make([]float64, n)
	res2, err := GMRES(DenseOp{M: a}, x2, b, GMRESOptions{
		Tol: 1e-9, Restart: 10,
		Precond: func(dst, r []float64) {
			for i := range dst {
				dst[i] = r[i] / diag[i]
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Converged {
		t.Fatalf("preconditioned GMRES did not converge: %+v", res2)
	}
	if res2.Iterations > res.Iterations {
		t.Logf("note: preconditioning took more iterations (%d vs %d)", res2.Iterations, res.Iterations)
	}
	for i := range x2 {
		if math.Abs(x2[i]-want[i]) > 1e-5 {
			t.Fatalf("precond x[%d] = %g want %g", i, x2[i], want[i])
		}
	}
}

// countingOp counts the matvecs a solve spends.
type countingOp struct {
	DenseOp
	applies *int
}

func (c countingOp) Apply(dst, x []float64) {
	*c.applies++
	c.DenseOp.Apply(dst, x)
}

// TestGMRESZeroGuessSpendsNoMatvecOnIt: from x = 0 the initial residual is
// b, exactly, so a solve applies the operator once per iteration and once
// for the true residual it reports; any other guess costs one more. The
// result's Applies is that count.
func TestGMRESZeroGuessSpendsNoMatvecOnIt(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 60
	a := randomSPD(n, rng)
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	for _, guess := range []float64{0, 1e-3} {
		x := make([]float64, n)
		x[n/2] = guess
		applies := 0
		res, err := GMRES(countingOp{DenseOp{M: a}, &applies}, x, b, GMRESOptions{Tol: 1e-10, Restart: n})
		if err != nil || !res.Converged {
			t.Fatalf("guess %g: %v %+v", guess, err, res)
		}
		want := res.Iterations + 1
		if guess != 0 {
			want++
		}
		if applies != want || res.Applies != want {
			t.Errorf("guess %g: %d applications (result says %d) for %d iterations, want %d",
				guess, applies, res.Applies, res.Iterations, want)
		}
	}
}

func TestGMRESZeroRHS(t *testing.T) {
	a := randomSPD(5, rand.New(rand.NewSource(8)))
	x := []float64{1, 2, 3, 4, 5}
	res, err := GMRES(DenseOp{M: a}, x, make([]float64, 5), GMRESOptions{})
	if err != nil || !res.Converged {
		t.Fatalf("zero rhs: %v %+v", err, res)
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("zero rhs must give zero solution")
		}
	}
}

func TestSymmetryError(t *testing.T) {
	a := NewDenseFrom(2, 2, []float64{1, 2, 2.5, 1})
	if e := a.SymmetryError(); math.Abs(e-0.5) > 1e-15 {
		t.Fatalf("SymmetryError = %g", e)
	}
}

// TestSymPacking packs matrices on both sides of the empty and the
// one-entry case in place: every row lands at its packed offset, the
// strict upper triangle is dropped, and Dense writes it back from the
// lower one.
func TestSymPacking(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, 70} {
		m := NewDense(n, n)
		for i := range m.Data {
			m.Data[i] = float64(i + 1)
		}
		s := PackLower(m)
		if len(s.Data) != n*(n+1)/2 || (n > 0 && &s.Data[0] != &m.Data[0]) {
			t.Fatalf("n=%d: %d packed entries, want %d in m's own storage", n, len(s.Data), n*(n+1)/2)
		}
		d := s.Dense()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if want := float64(max(i, j)*n + min(i, j) + 1); s.At(i, j) != want || d.At(i, j) != want {
					t.Fatalf("n=%d: (%d,%d) = %g packed, %g dense; want %g", n, i, j, s.At(i, j), d.At(i, j), want)
				}
			}
		}
	}
}

func TestCholeskyPropertySolveRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(30)
		a := randomSPD(n, r)
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		b := make([]float64, n)
		a.MulVec(b, x)
		ch, err := NewCholesky(a)
		if err != nil {
			return false
		}
		got := make([]float64, n)
		ch.Solve(got, b)
		for i := range got {
			if math.Abs(got[i]-x[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
