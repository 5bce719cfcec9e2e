package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// newSpace is an empty space of up to restart directions of dimension n.
func newSpace(n, restart int) *GMRESWorkspace {
	ws := &GMRESWorkspace{}
	ws.Reset(n, restart)
	return ws
}

// relResidual is |b - A x| / |b|, from the matrix.
func relResidual(a *Dense, x, b []float64) float64 {
	r := make([]float64, len(b))
	a.MulVec(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	return Norm2(r) / Norm2(b)
}

// gmresReference returns, for k = 1..steps, the relative residual of full
// GMRES after k iterations from a zero guess, by its definition: the least
// squares minimum of |b - B V y| over an orthonormal basis V of the Krylov
// space K_k(B, b), B = A M⁻¹ (the right-preconditioned operator, inv the
// diagonal of M⁻¹). Arnoldi with two Gram-Schmidt passes builds V; the
// minimum is one Householder QR per k. Nothing is shared with the solver.
func gmresReference(t *testing.T, a *Dense, inv, b []float64, steps int) []float64 {
	t.Helper()
	n := a.Rows
	applyB := func(dst, v []float64) {
		z := make([]float64, n)
		for i := range z {
			z[i] = v[i] * inv[i]
		}
		a.MulVec(dst, z)
	}
	v := make([][]float64, 0, steps)
	w := make([][]float64, 0, steps) // w[k] = B v[k]
	next := append([]float64(nil), b...)
	Scal(1/Norm2(next), next)
	var out []float64
	for k := 0; k < steps; k++ {
		v = append(v, next)
		bw := make([]float64, n)
		applyB(bw, next)
		w = append(w, bw)
		// min |b - W y| over the k+1 columns so far.
		wm := NewDense(n, k+1)
		for j := range w {
			for i := 0; i < n; i++ {
				wm.Set(i, j, w[j][i])
			}
		}
		qr, err := NewQR(wm)
		if err != nil {
			t.Fatal(err)
		}
		y, err := qr.LeastSquares(b)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, Residual(wm, y, b)/Norm2(b))
		// Next Arnoldi vector.
		next = append([]float64(nil), bw...)
		for pass := 0; pass < 2; pass++ {
			for _, vj := range v {
				Axpy(-Dot(vj, next), vj, next)
			}
		}
		Scal(1/Norm2(next), next)
	}
	return out
}

// TestSpaceIteratesAreGMRES: on an emptied space the solver is GMRES — the
// same Krylov space and the same minimiser — and it publishes x and r
// together after every direction. The preconditioner hook sees each
// iteration's residual and, through the caller's x, the iterate that has
// it: both must read the reference's residual norm to 1e-10.
func TestSpaceIteratesAreGMRES(t *testing.T) {
	const n, steps = 40, 12
	rng := rand.New(rand.NewSource(11))
	spd := randomSPD(n, rng)
	nonsym := NewDense(n, n)
	for i := range nonsym.Data {
		nonsym.Data[i] = 0.8 * rng.NormFloat64() / math.Sqrt(n)
	}
	for i := 0; i < n; i++ {
		nonsym.Add(i, i, 2)
	}
	ones := make([]float64, n)
	jac := make([]float64, n)
	for i := range ones {
		ones[i] = 1
		jac[i] = 1 / spd.At(i, i)
	}
	for _, tc := range []struct {
		name string
		a    *Dense
		inv  []float64
	}{{"spd", spd, ones}, {"spd-jacobi", spd, jac}, {"nonsymmetric", nonsym, ones}} {
		t.Run(tc.name, func(t *testing.T) {
			b := make([]float64, n)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			ref := gmresReference(t, tc.a, tc.inv, b, steps)
			if ref[steps-1] < 1e-9 {
				t.Fatalf("reference reaches %g in %d steps: nothing left to compare", ref[steps-1], steps)
			}
			x := make([]float64, n)
			k := 0 // iterations completed when the hook runs
			res, err := GMRESWith(nil, denseOp{tc.a}, x, b, GMRESOptions{
				Tol: 1e-300, Restart: n, MaxIter: steps,
				Precond: func(dst, r []float64) {
					if k > 0 {
						rec, tru := Norm2(r)/Norm2(b), relResidual(tc.a, x, b)
						if math.Abs(rec-ref[k-1]) > 1e-10 || math.Abs(tru-ref[k-1]) > 1e-10 {
							t.Errorf("after %d iterations: recurrence %.12e, iterate %.12e, full GMRES %.12e",
								k, rec, tru, ref[k-1])
						}
					}
					k++
					for i := range dst {
						dst[i] = r[i] * tc.inv[i]
					}
				},
			})
			if err != nil || res.Iterations != steps || res.Converged {
				t.Fatalf("want %d unconverged iterations, got %+v, %v", steps, res, err)
			}
			if tru := relResidual(tc.a, x, b); math.Abs(res.Residual-ref[steps-1]) > 1e-10 || math.Abs(tru-ref[steps-1]) > 1e-10 {
				t.Errorf("at MaxIter: reported %.12e, iterate %.12e, full GMRES %.12e", res.Residual, tru, ref[steps-1])
			}
		})
	}
}

// TestSpaceSharedAcrossRightHandSides: a second right-hand side solved in
// the space the first one left costs strictly fewer applications than in
// an empty one, and one that lies in the span of the held directions'
// images costs no iteration at all — the projection finds it, and the one
// application left is the true-residual check every converged solve makes.
func TestSpaceSharedAcrossRightHandSides(t *testing.T) {
	const n = 60
	rng := rand.New(rand.NewSource(12))
	a := randomSPD(n, rng)
	b1, b2 := make([]float64, n), make([]float64, n)
	for i := range b1 {
		b1[i], b2[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	opt := GMRESOptions{Tol: 1e-8, Restart: n}
	applies := 0
	op := countingOp{denseOp{a}, &applies}
	solve := func(ws *GMRESWorkspace, b []float64) ([]float64, GMRESResult) {
		t.Helper()
		x := make([]float64, n)
		before := applies
		res, err := ws.Solve(op, x, b, opt)
		if err != nil || !res.Converged {
			t.Fatalf("%+v, %v", res, err)
		}
		if res.Applies != applies-before {
			t.Fatalf("result counts %d applications, the operator saw %d", res.Applies, applies-before)
		}
		if tru := relResidual(a, x, b); tru > 1e-7 {
			t.Fatalf("converged iterate has residual %g", tru)
		}
		return x, res
	}
	_, alone := solve(newSpace(n, n), b2)

	ws := newSpace(n, n)
	x1, first := solve(ws, b1)
	_, second := solve(ws, b2)
	if second.Applies >= alone.Applies {
		t.Errorf("second right-hand side: %d applications in the first's space, %d in an empty one",
			second.Applies, alone.Applies)
	}
	t.Logf("applications: first %d, second %d shared / %d alone", first.Applies, second.Applies, alone.Applies)

	// 2 A x1 is a combination of the images the first solve holds.
	b3 := make([]float64, n)
	a.MulVec(b3, x1)
	Scal(2, b3)
	if _, in := solve(ws, b3); in.Iterations != 0 || in.Applies != 1 {
		t.Errorf("right-hand side in the span: %d iterations, %d applications, want 0 and the one residual check",
			in.Iterations, in.Applies)
	}
}

// TestSpaceRingWraps: a space of five directions overwrites its oldest and
// keeps going — no reset, the residual never grows, and the solve still
// converges.
func TestSpaceRingWraps(t *testing.T) {
	const n = 80
	rng := rand.New(rand.NewSource(13))
	a := randomSPD(n, rng)
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	var hist []float64
	x := make([]float64, n)
	res, err := GMRESWith(nil, denseOp{a}, x, b, GMRESOptions{
		Tol: 1e-9, Restart: 5,
		Precond: func(dst, r []float64) {
			hist = append(hist, Norm2(r))
			copy(dst, r)
		},
	})
	if err != nil || !res.Converged {
		t.Fatalf("%+v, %v", res, err)
	}
	if res.Iterations <= 10 {
		t.Fatalf("%d iterations: the ring of 5 did not wrap twice", res.Iterations)
	}
	for k := 1; k < len(hist); k++ {
		if hist[k] > hist[k-1] {
			t.Errorf("residual grew at iteration %d: %g -> %g", k, hist[k-1], hist[k])
		}
	}
	if tru := relResidual(a, x, b); tru > 1e-8 {
		t.Errorf("converged iterate has residual %g", tru)
	}
}

// nanOp is an operator whose every image is not a number.
type nanOp int

func (o nanOp) Dim() int { return int(o) }
func (o nanOp) Apply(dst, x []float64) {
	for i := range dst {
		dst[i] = math.NaN()
	}
}

// TestSpaceBreakdown: an operator whose image collapses ends the solve in
// ErrGMRESBreakdown with the last good iterate in x — never a NaN, never a
// direction scaled up from rounding noise.
func TestSpaceBreakdown(t *testing.T) {
	// A = e0 e0ᵀ and b = e0 + e1: one direction takes b's e0 part exactly,
	// and the rest of b has no image.
	a := NewDense(4, 4)
	a.Set(0, 0, 1)
	b := []float64{1, 1, 0, 0}
	x := make([]float64, 4)
	res, err := GMRESWith(nil, denseOp{a}, x, b, GMRESOptions{Tol: 1e-10})
	if !errors.Is(err, ErrGMRESBreakdown) {
		t.Fatalf("collapsed image: %+v, %v, want ErrGMRESBreakdown", res, err)
	}
	if res.Iterations != 2 || x[0] != 1 || x[1] != 1 || math.Abs(res.Residual-math.Sqrt(0.5)) > 1e-15 {
		t.Errorf("want the iterate after one direction (x = b, residual 1/sqrt 2), got x = %v, %+v", x, res)
	}

	x = make([]float64, 4)
	res, err = GMRESWith(nil, nanOp(4), x, b, GMRESOptions{Tol: 1e-10})
	if !errors.Is(err, ErrGMRESBreakdown) || !allZero(x) || res.Residual != 1 {
		t.Fatalf("NaN image: x = %v, %+v, %v, want ErrGMRESBreakdown and the untouched guess", x, res, err)
	}

	// A seed without an image is dropped, one in the span of the held ones
	// too; the space stays usable.
	ws := newSpace(4, 4)
	if ws.Seed(denseOp{a}, []float64{0, 1, 0, 0}) {
		t.Error("space took a seed with a zero image")
	}
	if !ws.Seed(denseOp{a}, []float64{2, 0, 0, 0}) || ws.Seed(denseOp{a}, []float64{1, 5, 0, 0}) {
		t.Error("want the first seed along e0 taken and the second dropped")
	}
}
