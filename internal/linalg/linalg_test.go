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

// TestSolveVecMatchesSolve: the one-vector solve of the block-Jacobi
// preconditioner against the block solve, on positive definite matrices
// and on indefinite ones whose pivots include 2x2 blocks and
// interchanges: agreement to 1e-12 of the solution's size, the known
// solution to rounding, and no allocation.
func TestSolveVecMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	blocks2x2 := 0
	for _, tc := range []ldlCase{{"random-spd", func(n int, rng *rand.Rand) (*Dense, int) {
		return randomSPD(n, rng), 0
	}}, ldlCases[1], ldlCases[2]} {
		for _, n := range []int{1, 2, 5, 20, 100, 257} {
			a, neg := tc.build(n, rng)
			f, err := FactorSym(PackLower(a.Clone()))
			if err != nil {
				if n == 1 && tc.name == "zero-diagonal" {
					continue // the 1x1 zero matrix
				}
				t.Fatalf("%s n=%d: %v", tc.name, n, err)
			}
			if neg >= 0 && f.Inertia().Negative != neg {
				t.Errorf("%s n=%d: %d negative pivots, want %d", tc.name, n, f.Inertia().Negative, neg)
			}
			blocks2x2 += f.Inertia().Blocks2x2
			want := make([]float64, n)
			for i := range want {
				want[i] = rng.NormFloat64()
			}
			b := make([]float64, n)
			a.MulVec(b, want)
			x := append([]float64(nil), b...)
			f.SolveVec(x)
			col := NewDenseFrom(n, 1, append([]float64(nil), b...))
			f.Solve(col)
			scale := 0.0
			for _, v := range col.Data {
				scale = math.Max(scale, math.Abs(v))
			}
			for i := range x {
				if d := math.Abs(x[i] - col.Data[i]); d > 1e-12*scale {
					t.Fatalf("%s n=%d: x[%d] = %g, Solve %g", tc.name, n, i, x[i], col.Data[i])
				}
			}
			if tc.name == "random-spd" {
				for i := range x {
					if math.Abs(x[i]-want[i]) > 1e-8 {
						t.Fatalf("n=%d: x[%d] = %g want %g", n, i, x[i], want[i])
					}
				}
			}
			if allocs := testing.AllocsPerRun(5, func() { f.SolveVec(x) }); allocs != 0 {
				t.Fatalf("%s n=%d: SolveVec allocates %.0f objects", tc.name, n, allocs)
			}
		}
	}
	if blocks2x2 == 0 {
		t.Fatal("no 2x2 pivot was met: the indefinite cases test nothing of SolveVec's 2x2 branch")
	}
}

// TestNewLDLTRejectsIndefinite: an indefinite matrix factors with a
// negative pivot — what makes block-Jacobi fall back to a block's
// diagonal — and NewLDLT adopts only what a positive definite
// factorization leaves: the right sizes, finite entries, 1x1 pivots that
// interchange forward, a positive D.
func TestNewLDLTRejectsIndefinite(t *testing.T) {
	indef, err := FactorSym(PackLower(NewDenseFrom(2, 2, []float64{1, 2, 2, 1}))) // eigenvalues 3, -1
	if err != nil {
		t.Fatal(err)
	}
	if in := indef.Inertia(); in.Negative != 1 {
		t.Fatalf("inertia %+v, want one negative pivot", in)
	}
	if _, err := NewLDLT(indef.Packed()); err == nil {
		t.Fatal("the factor of an indefinite matrix adopted")
	}
	a := randomSPD(6, rand.New(rand.NewSource(5)))
	a.Set(0, 0, 1e-3) // a small leading diagonal: the first step interchanges
	for j := 1; j < 6; j++ {
		a.Set(0, j, 0)
		a.Set(j, 0, 0)
	}
	a.Set(0, 5, 1)
	a.Set(5, 0, 1)
	a.Add(5, 5, 1e4)
	f, err := FactorSym(PackLower(a.Clone()))
	if err != nil {
		t.Fatal(err)
	}
	s, piv := f.Packed()
	if f.Inertia().Negative != 0 || piv[0] == 0 {
		t.Fatalf("inertia %+v, pivots %v: want a positive definite factor that interchanges", f.Inertia(), piv)
	}
	g, err := NewLDLT(s, piv)
	if err != nil {
		t.Fatalf("FactorSym's own factor rejected: %v", err)
	}
	x, y := []float64{1, 2, 3, 4, 5, 6}, []float64{1, 2, 3, 4, 5, 6}
	f.SolveVec(x)
	g.SolveVec(y)
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("adopted factor solves to %v, FactorSym's to %v", y, x)
		}
	}
	for name, mod := range map[string]func(s *Sym, piv []int) (*Sym, []int){
		"short data":    func(s *Sym, piv []int) (*Sym, []int) { return &Sym{N: s.N, Data: s.Data[1:]}, piv },
		"short pivots":  func(s *Sym, piv []int) (*Sym, []int) { return s, piv[1:] },
		"nan below":     func(s *Sym, piv []int) (*Sym, []int) { s.Row(3)[1] = math.NaN(); return s, piv },
		"inf diagonal":  func(s *Sym, piv []int) (*Sym, []int) { s.Row(2)[2] = math.Inf(1); return s, piv },
		"pivot behind":  func(s *Sym, piv []int) (*Sym, []int) { piv[3] = 2; return s, piv },
		"pivot past n":  func(s *Sym, piv []int) (*Sym, []int) { piv[3] = 6; return s, piv },
		"2x2 block":     func(s *Sym, piv []int) (*Sym, []int) { piv[3], piv[4] = 3, ^4; return s, piv },
		"zero diagonal": func(s *Sym, piv []int) (*Sym, []int) { s.Row(4)[4] = 0; return s, piv },
		"negative D":    func(s *Sym, piv []int) (*Sym, []int) { s.Row(1)[1] = -s.Row(1)[1]; return s, piv },
	} {
		bad := &Sym{N: s.N, Data: append([]float64(nil), s.Data...)}
		if _, err := NewLDLT(mod(bad, append([]int(nil), piv...))); err == nil {
			t.Errorf("%s: adopted", name)
		}
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
	res, err := GMRES(denseOp{a}, x, b, GMRESOptions{Tol: 1e-10})
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
	res, err := GMRES(denseOp{a}, x, b, GMRESOptions{Tol: 1e-9, Restart: 10})
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
	res2, err := GMRES(denseOp{a}, x2, b, GMRESOptions{
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
	denseOp
	applies *int
}

func (c countingOp) Apply(dst, x []float64) {
	*c.applies++
	c.denseOp.Apply(dst, x)
}

// denseOp is a Dense matrix as a Matvec.
type denseOp struct{ m *Dense }

func (d denseOp) Apply(dst, x []float64) { d.m.MulVec(dst, x) }
func (d denseOp) Dim() int               { return d.m.Rows }

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
		res, err := GMRES(countingOp{denseOp{a}, &applies}, x, b, GMRESOptions{Tol: 1e-10, Restart: n})
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
	res, err := GMRES(denseOp{a}, x, make([]float64, 5), GMRESOptions{})
	if err != nil || !res.Converged {
		t.Fatalf("zero rhs: %v %+v", err, res)
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("zero rhs must give zero solution")
		}
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

// TestSolveVecPropertyRoundtrip: A·x = b recovered by SolveVec on random
// positive definite matrices of random order.
func TestSolveVecPropertyRoundtrip(t *testing.T) {
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
		fa, err := FactorSym(PackLower(a))
		if err != nil || fa.Inertia().Negative != 0 {
			return false
		}
		fa.SolveVec(b)
		for i := range b {
			if math.Abs(b[i]-x[i]) > 1e-6 {
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
