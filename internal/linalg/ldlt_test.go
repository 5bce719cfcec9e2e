package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// ldlSizes straddle the panel width: nothing but the unblocked code,
// one panel exactly, several panels with a ragged tail, and the
// headline N of the 16x16 bus.
var ldlSizes = []int{1, 2, 3, ldlBlock - 1, ldlBlock, ldlBlock + 1, 2 * ldlBlock, 3*ldlBlock + 7, 704}

// symFromSpectrum returns Q·diag(d)·Qᵀ with Q a product of three random
// Householder reflectors: a dense symmetric matrix whose eigenvalues,
// and so whose inertia, are known by construction.
func symFromSpectrum(d []float64, rng *rand.Rand) *Dense {
	n := len(d)
	a := NewDense(n, n)
	for i, v := range d {
		a.Set(i, i, v)
	}
	v, p := make([]float64, n), make([]float64, n)
	for h := 0; h < 3; h++ {
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		Scal(1/Norm2(v), v)
		// H·A·H with H = I - 2vvᵀ, p = A·v, α = vᵀ·p.
		a.MulVec(p, v)
		alpha := Dot(v, p)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Add(i, j, -2*v[i]*p[j]-2*p[i]*v[j]+4*alpha*v[i]*v[j])
			}
		}
	}
	for i := 0; i < n; i++ { // exactly symmetric
		for j := 0; j < i; j++ {
			a.Set(j, i, a.At(i, j))
		}
	}
	return a
}

// ldlCase is a family of symmetric test matrices; negative is the
// number of negative eigenvalues where the construction fixes it, -1
// where it does not.
type ldlCase struct {
	name  string
	build func(n int, rng *rand.Rand) (a *Dense, negative int)
}

var ldlCases = []ldlCase{
	{"spd", func(n int, rng *rand.Rand) (*Dense, int) {
		d := make([]float64, n)
		for i := range d {
			d[i] = 0.5 + 10*rng.Float64()
		}
		return symFromSpectrum(d, rng), 0
	}},
	{"indefinite", func(n int, rng *rand.Rand) (*Dense, int) {
		d := make([]float64, n)
		neg := 0
		for i := range d {
			d[i] = 0.5 + 10*rng.Float64()
			if i%3 == 1 {
				d[i], neg = -d[i], neg+1
			}
		}
		return symFromSpectrum(d, rng), neg
	}},
	{"zero-diagonal", func(n int, rng *rand.Rand) (*Dense, int) {
		// No 1x1 pivot is available at the start: 2x2 blocks or
		// nothing. (n = 1 is the zero matrix; see the singular test.)
		a := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < i; j++ {
				v := rng.NormFloat64()
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		return a, -1
	}},
	{"arrow", func(n int, rng *rand.Rand) (*Dense, int) {
		// A tiny diagonal under a heavy last row: every column's
		// maximum sits in the row furthest from its diagonal.
		a := NewDense(n, n)
		for i := 0; i < n; i++ {
			a.Set(i, i, 1e-3*rng.NormFloat64())
		}
		for i := 0; i < n-1; i++ {
			v := 1 + rng.Float64()
			a.Set(n-1, i, v)
			a.Set(i, n-1, v)
		}
		return a, -1
	}},
	{"scaled", func(n int, rng *rand.Rand) (*Dense, int) {
		// S·A·S with S spanning eight decades: the inertia survives
		// (Sylvester), the entries span sixteen.
		d := make([]float64, n)
		neg := 0
		for i := range d {
			d[i] = 1 + rng.Float64()
			if i%4 == 2 {
				d[i], neg = -d[i], neg+1
			}
		}
		a := symFromSpectrum(d, rng)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, a.At(i, j)*math.Pow(10, float64(i%9-4))*math.Pow(10, float64(j%9-4)))
			}
		}
		return a, neg
	}},
}

func frob(m *Dense) float64 { return Norm2(m.Data) }

func randomDense(r, c int, rng *rand.Rand) *Dense {
	m := NewDense(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// checkResidual holds ‖A·X - B‖ against the backward-error bound of a
// stable solve; the product is formed with Mul, which shares nothing
// with the factorization.
func checkResidual(t *testing.T, a, x, b *Dense) {
	t.Helper()
	n := a.Rows
	r := NewDense(n, b.Cols)
	Mul(r, a, x)
	for i := range r.Data {
		r.Data[i] -= b.Data[i]
	}
	const eps = 2.220446049250313e-16
	if res, bound := frob(r), 20*float64(n)*eps*frob(a)*frob(x); res > bound || math.IsNaN(res) {
		t.Errorf("residual %.3g exceeds 20·n·ε·‖A‖·‖X‖ = %.3g", res, bound)
	}
}

func TestFactorSymResidualAndInertia(t *testing.T) {
	for _, tc := range ldlCases {
		for _, n := range ldlSizes {
			if tc.name == "zero-diagonal" && n == 1 {
				continue
			}
			if n == 704 && testing.Short() && tc.name != "indefinite" {
				continue
			}
			t.Run(fmt.Sprintf("%s/n=%d", tc.name, n), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(1000*n + len(tc.name))))
				a, neg := tc.build(n, rng)
				b := randomDense(n, 3, rng)
				f, err := FactorSym(PackLower(a.Clone()))
				if err != nil {
					t.Fatal(err)
				}
				x := b.Clone()
				f.Solve(x)
				checkResidual(t, a, x, b)
				in := f.Inertia()
				if neg >= 0 && in.Negative != neg {
					t.Errorf("inertia: %d negative pivots, matrix has %d negative eigenvalues", in.Negative, neg)
				}
				if tc.name == "spd" && in.Blocks2x2 != 0 {
					t.Errorf("SPD matrix took %d 2x2 pivots", in.Blocks2x2)
				}
				if (tc.name == "zero-diagonal" || tc.name == "arrow") && n > 1 && in.Blocks2x2 == 0 {
					t.Errorf("%s matrix factored without a 2x2 pivot", tc.name)
				}
				if tc.name == "arrow" && n > 2 && f.piv[1] != ^(n-1) {
					t.Errorf("arrow matrix: first pivot interchanged row 1 with %d, want the last row", ^f.piv[1])
				}
			})
		}
	}
}

// factorUnblocked is FactorSym with the panels switched off.
func factorUnblocked(a *Sym) (*LDLT, error) {
	n := a.N
	f := &LDLT{a: a, piv: make([]int, n)}
	return f, f.unblocked(0, make([]float64, n), make([]float64, n))
}

func TestFactorSymBlockedMatchesUnblocked(t *testing.T) {
	for _, tc := range ldlCases {
		for _, n := range []int{ldlBlock + 1, 2 * ldlBlock, 3*ldlBlock + 7} {
			rng := rand.New(rand.NewSource(int64(n)))
			a, _ := tc.build(n, rng)
			b := randomDense(n, 2, rng)
			fb, err := FactorSym(PackLower(a.Clone()))
			if err != nil {
				t.Fatal(err)
			}
			fu, err := factorUnblocked(PackLower(a.Clone()))
			if err != nil {
				t.Fatal(err)
			}
			if fb.Inertia() != fu.Inertia() {
				t.Errorf("%s n=%d: inertia blocked %+v, unblocked %+v", tc.name, n, fb.Inertia(), fu.Inertia())
			}
			xb, xu := b.Clone(), b.Clone()
			fb.Solve(xb)
			fu.Solve(xu)
			// The two may pick different pivots where a test is a near
			// tie, so compare what they solve, not their factors.
			if d := MaxAbsDiff(xb, xu); d > 1e-9*frob(xu) {
				t.Errorf("%s n=%d: blocked and unblocked solutions differ by %g", tc.name, n, d)
			}
		}
	}
}

// The trailing update is the only parallel part; 300 rows put its first
// panels past parallelRows' 128-row threshold.
func TestFactorSymBitwiseAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a, _ := ldlCases[1].build(300, rng)
	b := randomDense(300, 5, rng)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var ref *Sym
	var refX *Dense
	var refPiv []int
	for _, w := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(w)
		fa := PackLower(a.Clone())
		f, err := FactorSym(fa)
		if err != nil {
			t.Fatal(err)
		}
		x := b.Clone()
		f.Solve(x)
		if ref == nil {
			ref, refX, refPiv = fa, x, f.piv
			continue
		}
		for i := range fa.Data {
			if math.Float64bits(fa.Data[i]) != math.Float64bits(ref.Data[i]) {
				t.Fatalf("%d workers: factor entry %d differs from 1 worker's", w, i)
			}
		}
		for i := range x.Data {
			if math.Float64bits(x.Data[i]) != math.Float64bits(refX.Data[i]) {
				t.Fatalf("%d workers: solution entry %d differs from 1 worker's", w, i)
			}
		}
		for i := range refPiv {
			if f.piv[i] != refPiv[i] {
				t.Fatalf("%d workers: pivot %d differs", w, i)
			}
		}
	}
}

func TestLDLTSolveKnownAndPerColumn(t *testing.T) {
	// A known solution: [[1,2],[2,1]]·[-1,2] = [3,0].
	a := NewDenseFrom(2, 2, []float64{1, 2, 2, 1})
	f, err := FactorSym(PackLower(a.Clone()))
	if err != nil {
		t.Fatal(err)
	}
	x := NewDenseFrom(2, 1, []float64{3, 0})
	f.Solve(x)
	if math.Abs(x.At(0, 0)+1) > 1e-15 || math.Abs(x.At(1, 0)-2) > 1e-15 {
		t.Fatalf("solution %v, want [-1 2]", x.Data)
	}
	// All right-hand sides at once equals one at a time, to the bit.
	rng := rand.New(rand.NewSource(2))
	n, m := 150, 7
	big, _ := ldlCases[1].build(n, rng)
	b := randomDense(n, m, rng)
	fb, err := FactorSym(PackLower(big.Clone()))
	if err != nil {
		t.Fatal(err)
	}
	all := b.Clone()
	fb.Solve(all)
	for j := 0; j < m; j++ {
		col := NewDense(n, 1)
		for i := 0; i < n; i++ {
			col.Data[i] = b.At(i, j)
		}
		fb.Solve(col)
		for i := 0; i < n; i++ {
			if col.Data[i] != all.At(i, j) {
				t.Fatalf("column %d row %d: alone %g, in the block %g", j, i, col.Data[i], all.At(i, j))
			}
		}
	}
}

func TestFactorSymRejectsSingularAndNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	big := func(poison float64, i, j int) *Dense {
		a, _ := ldlCases[1].build(2*ldlBlock+5, rand.New(rand.NewSource(3)))
		a.Set(i, j, poison)
		return a
	}
	for name, a := range map[string]*Dense{
		"zero 1x1":         NewDense(1, 1),
		"zero 3x3":         NewDense(3, 3),
		"rank one":         NewDenseFrom(2, 2, []float64{1, 2, 2, 4}),
		"singular 2x2 blk": NewDenseFrom(3, 3, []float64{0, 1, 1, 1, 0, 1, 1, 1, 2}),
		"nan diagonal":     NewDenseFrom(2, 2, []float64{nan, 1, 1, 2}),
		"nan below":        NewDenseFrom(2, 2, []float64{1, 0, nan, 2}),
		"inf diagonal":     NewDenseFrom(2, 2, []float64{1, 1, 1, inf}),
		"nan last row":     big(nan, 2*ldlBlock+4, 7),
		"nan in a panel":   big(nan, 40, 3),
		"inf last entry":   big(inf, 2*ldlBlock+4, 2*ldlBlock+4),
		"-inf mid panel":   big(-inf, ldlBlock+9, ldlBlock+2),
	} {
		_, err := FactorSym(PackLower(a))
		if !errors.Is(err, ErrSingular) {
			t.Errorf("%s: err = %v, want ErrSingular", name, err)
		}
	}
}

// BenchmarkFactorSym reports the factorization's cost per multiply-add
// of the n³/6 it needs, on a positive definite and on an indefinite
// matrix: the two must cost the same.
func BenchmarkFactorSym(b *testing.B) {
	for _, tc := range ldlCases[:2] {
		for _, n := range []int{128, 352, 704, 1408} {
			b.Run(fmt.Sprintf("%s/n=%d", tc.name, n), func(b *testing.B) {
				a, _ := tc.build(n, rand.New(rand.NewSource(int64(n))))
				packed := PackLower(a.Clone())
				work := NewSym(n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					copy(work.Data, packed.Data)
					if _, err := FactorSym(work); err != nil {
						b.Fatal(err)
					}
				}
				madds := float64(n) * float64(n) * float64(n) / 6
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/madds, "ns/madd")
			})
		}
	}
}
