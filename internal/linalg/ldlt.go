package linalg

import (
	"errors"
	"fmt"
	"math"
	"runtime"
)

// ErrSingular is returned when a factorization meets a zero or
// non-finite pivot: the matrix is singular, or holds a NaN or Inf.
var ErrSingular = errors.New("linalg: matrix is singular")

// ldlBlock is the panel width of the blocked LDLᵀ: the trailing update
// then runs as rank-ldlBlock dot products through dot2x2, and matrices
// this small (and the last partial panel) are factored unblocked.
const ldlBlock = 64

// bkAlpha is the Bunch–Kaufman pivot threshold (1+√17)/8, which bounds
// the element growth of a 1x1 and of a 2x2 step equally.
const bkAlpha = 0.6403882032022076

// Inertia is what a symmetric factorization learns about the spectrum
// for free: D has as many negative eigenvalues as the matrix (Sylvester),
// and each 2x2 block is a pivot the diagonal could not supply. A
// positive definite matrix has Negative == 0.
type Inertia struct {
	Negative  int // negative eigenvalues of D, hence of the matrix
	Blocks2x2 int // 2x2 blocks of D
}

// LDLT is the Bunch–Kaufman factorization P·A·Pᵀ = L·D·Lᵀ of a
// symmetric, possibly indefinite matrix: L unit lower triangular, D
// block diagonal with 1x1 and 2x2 blocks, P a product of interchanges.
// It lives in the packed lower triangle it was computed from — D on the
// (block) diagonal, L below it, every interchange applied to whole rows
// of L, so that a solve permutes once, sweeps, and permutes back.
type LDLT struct {
	a *Sym
	// Step k interchanged k with piv[k] >= k, or with ^piv[k] where
	// piv[k] < 0 marks k as the second row of a 2x2 block (whose first
	// row stayed where it was).
	piv     []int
	inertia Inertia
}

// FactorSym factorizes the symmetric matrix a in place: its packed lower
// triangle is overwritten by the factor. The algorithm is LAPACK's
// dsytrf — left-looking panels of ldlBlock columns that keep W = L·D
// in a workspace, each followed by the trailing update A22 -= L21·W21ᵀ
// in parallel over row chunks — and costs N³/3 whatever the inertia.
// Every entry of A22 belongs to one chunk and is summed in a fixed
// order, so the factor is bitwise the same at any worker count. An
// error wraps ErrSingular and names the pivot at which elimination met
// a zero or non-finite column.
func FactorSym(a *Sym) (*LDLT, error) {
	n := a.N
	f := &LDLT{a: a, piv: make([]int, n)}
	c1, c2 := make([]float64, n), make([]float64, n)
	k := 0
	if n > ldlBlock {
		w := NewDense(n, ldlBlock)
		workers := runtime.GOMAXPROCS(0)
		for n-k > ldlBlock {
			j0 := k
			j1, err := f.panel(j0, w, c1, c2)
			if err != nil {
				return nil, err
			}
			parallelRows(j1, n, workers, func(lo, hi int) {
				symUpdate(a, w, j0, j1, lo, hi)
			})
			k = j1
		}
	}
	if err := f.unblocked(k, c1, c2); err != nil {
		return nil, err
	}
	return f, nil
}

// Inertia reports the negative pivots and the 2x2 blocks of D.
func (f *LDLT) Inertia() Inertia { return f.inertia }

// panel factors columns j0.. of a left-looking (dlasyf): the storage to
// the right of the current column keeps its pre-panel values, and the
// panel's contribution L·Wᵀ is subtracted from a column only when it
// becomes a pivot candidate. Row i of w holds (L·D)(i, j0:k). It stops
// with room for a 2x2 pivot's second column and returns the first
// column it did not factor.
func (f *LDLT) panel(j0 int, w *Dense, c1, c2 []float64) (int, error) {
	a, n := f.a, f.a.N
	k := j0
	for k-j0 < ldlBlock-1 {
		kp, size, err := f.pivot(k, j0, w, c1, c2)
		if err != nil {
			return 0, err
		}
		done := k - j0 // columns of w already final
		if kk := k + size - 1; kp != kk {
			swapSym(a, kk, kp)
			swap(w.Row(kk)[:done], w.Row(kp)[:done])
		}
		if size == 1 {
			d := c1[0]
			a.Row(k)[k] = d
			for i := k + 1; i < n; i++ {
				c := c1[i-k]
				a.Row(i)[k] = c / d
				w.Data[i*ldlBlock+done] = c
			}
		} else {
			d := block2x2{c1[0], c1[1], c2[1]}
			a.Row(k)[k] = d.d11
			rk1 := a.Row(k + 1)
			rk1[k], rk1[k+1] = d.e, d.d22
			for i := k + 2; i < n; i++ {
				u, v := c1[i-k], c2[i-k]
				ri := a.Row(i)[k : k+2]
				ri[0], ri[1] = d.solve(u, v)
				wi := w.Data[i*ldlBlock+done : i*ldlBlock+done+2]
				wi[0], wi[1] = u, v
			}
		}
		f.record(k, kp, size, c1[0])
		k += size
	}
	return k, nil
}

// unblocked factors columns k0..n-1 right-looking (dsytf2): every pivot
// updates the whole remaining triangle at once, one axpy per row and
// pivot column. It finishes what the panels leave and is all a small
// matrix needs.
func (f *LDLT) unblocked(k0 int, c1, c2 []float64) error {
	a, n := f.a, f.a.N
	for k := k0; k < n; {
		kp, size, err := f.pivot(k, k, nil, c1, c2)
		if err != nil {
			return err
		}
		if kk := k + size - 1; kp != kk {
			swapSym(a, kk, kp)
		}
		if size == 1 {
			d := c1[0]
			for i := k + 1; i < n; i++ {
				ri := a.Row(i)
				l := c1[i-k] / d
				Axpy(-l, c1[1:i-k+1], ri[k+1:i+1])
				ri[k] = l
			}
		} else {
			d := block2x2{c1[0], c1[1], c2[1]}
			for i := k + 2; i < n; i++ {
				ri := a.Row(i)
				l0, l1 := d.solve(c1[i-k], c2[i-k])
				Axpy(-l0, c1[2:i-k+1], ri[k+2:i+1])
				Axpy(-l1, c2[2:i-k+1], ri[k+2:i+1])
				ri[k], ri[k+1] = l0, l1
			}
		}
		f.record(k, kp, size, c1[0])
		k += size
	}
	return nil
}

// pivot runs the Bunch–Kaufman test on column k of the reduced matrix
// and returns the pivot's size and the index kp to interchange with the
// pivot's last column (k for a 1x1 pivot, k+1 for a 2x2). On return c1,
// and c2 for a 2x2 pivot, hold the pivot columns of the interchanged
// reduced matrix from row k down. Every value that can become part of D
// is checked, so a NaN or Inf the elimination reaches ends in an error
// rather than in a pivot; j0 and w are reducedCol's.
func (f *LDLT) pivot(k, j0 int, w *Dense, c1, c2 []float64) (kp, size int, err error) {
	n := f.a.N
	c1, c2 = c1[:n-k], c2[:n-k]
	f.reducedCol(c1, k, k, j0, w)
	absakk := math.Abs(c1[0])
	imax, colmax := iamax(c1[1:])
	imax++
	if m := math.Max(absakk, colmax); !(m > 0) || math.IsInf(m, 0) {
		return 0, 0, pivotError(k, m)
	}
	if absakk >= bkAlpha*colmax {
		return k, 1, nil
	}
	// The diagonal is small against its column: look along the row of
	// the column's largest entry before deciding.
	f.reducedCol(c2, k+imax, k, j0, w)
	dmax := c2[imax]
	c2[imax] = 0 // the row's maximum is taken off the diagonal
	_, rowmax := iamax(c2)
	c2[imax] = dmax
	absdmax := math.Abs(dmax)
	if m := math.Max(rowmax, absdmax); m != m || math.IsInf(m, 0) {
		return 0, 0, pivotError(k, m)
	}
	switch {
	case absakk >= bkAlpha*colmax*(colmax/rowmax):
		kp = k
	case absdmax >= bkAlpha*rowmax:
		copy(c1, c2)
		c1[0], c1[imax] = c1[imax], c1[0]
		kp = k + imax
	default:
		c1[1], c1[imax] = c1[imax], c1[1]
		c2[1], c2[imax] = c2[imax], c2[1]
		return k + imax, 2, nil
	}
	if c1[0] == 0 { // a threshold underflowed
		return 0, 0, pivotError(k, 0)
	}
	return kp, 1, nil
}

// pivotError names the pivot at which elimination stopped.
func pivotError(k int, m float64) error {
	what := "non-finite"
	if m == 0 {
		what = "zero"
	}
	return fmt.Errorf("linalg: %s pivot column at index %d: %w", what, k, ErrSingular)
}

// record books a chosen pivot: its interchange and its share of the
// inertia. A Bunch–Kaufman 2x2 block has |d11·d22| < α²·e², so its
// determinant is negative and it holds one eigenvalue of each sign.
func (f *LDLT) record(k, kp, size int, d11 float64) {
	if size == 1 {
		f.piv[k] = kp
		if d11 < 0 {
			f.inertia.Negative++
		}
		return
	}
	f.piv[k], f.piv[k+1] = k, ^kp
	f.inertia.Negative++
	f.inertia.Blocks2x2++
}

// reducedCol writes entries (i, r), i in [k, n), of the reduced matrix
// at elimination step k into dst[i-k]: the symmetric entries stored in
// the lower triangle, minus — inside a panel that began at column j0 —
// the product L(i, j0:k)·W(r, :k-j0)ᵀ the storage has not yet received.
func (f *LDLT) reducedCol(dst []float64, r, k, j0 int, w *Dense) {
	a, n := f.a, f.a.N
	copy(dst, a.Row(r)[k:r+1])
	for i := r + 1; i < n; i++ {
		dst[i-k] = a.Row(i)[r]
	}
	if k == j0 {
		return
	}
	wr := w.Row(r)[:k-j0]
	for i := k; i < n; i++ {
		dst[i-k] -= Dot(a.Row(i)[j0:k], wr)
	}
}

// swapSym interchanges rows and columns p < q of the symmetric matrix
// a; columns left of p are finished columns of L and have their rows
// swapped.
func swapSym(a *Sym, p, q int) {
	rp, rq := a.Row(p), a.Row(q)
	swap(rp[:p], rq[:p])
	rp[p], rq[q] = rq[q], rp[p]
	for i := p + 1; i < q; i++ {
		ri := a.Row(i)
		ri[p], rq[i] = rq[i], ri[p]
	}
	for i := q + 1; i < a.N; i++ {
		ri := a.Row(i)
		ri[p], ri[q] = ri[q], ri[p]
	}
}

// swap exchanges the contents of two slices of one length.
func swap(x, y []float64) {
	for j := range x {
		x[j], y[j] = y[j], x[j]
	}
}

// iamax returns the index and magnitude of the largest |x[i]| (0, 0 for
// an empty x). A NaN wins and sticks, so callers see it.
func iamax(x []float64) (int, float64) {
	idx, m := 0, 0.0
	for i, v := range x {
		if v = math.Abs(v); v > m || v != v {
			idx, m = i, v
		}
	}
	return idx, m
}

// block2x2 is a 2x2 pivot [[d11, e], [e, d22]]. Bunch–Kaufman only
// picks one with |d11·d22| < α²·e², so e != 0 and the scaled
// determinant below stays away from zero.
type block2x2 struct{ d11, e, d22 float64 }

// solve returns x with D·x = (u, v), in dsytrs' scaling by e.
func (d block2x2) solve(u, v float64) (float64, float64) {
	t11, t22 := d.d11/d.e, d.d22/d.e
	den := t11*t22 - 1
	u, v = u/d.e, v/d.e
	return (t22*u - v) / den, (t11*v - u) / den
}

// symUpdate applies the trailing update to rows [lo, hi): entry (i, j),
// j1 <= j <= i, loses dot(L(i, j0:j1), W(j, :j1-j0)). Whole 2x2 tiles
// and the ragged entries next to the diagonal go through the same
// kernel, so an entry's sum does not depend on how the rows were tiled.
func symUpdate(a *Sym, w *Dense, j0, j1, lo, hi int) {
	kb := j1 - j0
	for i := lo; i < hi; i += 2 {
		pair := i+1 < hi // the last row of an odd range goes alone
		r0 := a.Row(i)
		r1 := r0
		if pair {
			r1 = a.Row(i + 1)
		}
		l0, l1 := r0[j0:j1], r1[j0:j1]
		j := j1
		for ; j < i; j += 2 {
			s00, s01, s10, s11 := dot2x2(l0, l1, w.Row(j)[:kb], w.Row(j + 1)[:kb])
			r0[j] -= s00
			r0[j+1] -= s01
			if pair {
				r1[j] -= s10
				r1[j+1] -= s11
			}
		}
		// Next to the diagonal: (i, i) and (i+1, i) when the tiles
		// stopped at column i, and (i+1, i+1) always.
		if j == i {
			s00, _, s10, _ := dot2x2(l0, l1, w.Row(i)[:kb], w.Row(i)[:kb])
			r0[i] -= s00
			if pair {
				r1[i] -= s10
			}
		}
		if pair {
			_, _, _, s11 := dot2x2(l0, l1, w.Row(i + 1)[:kb], w.Row(i + 1)[:kb])
			r1[i+1] -= s11
		}
	}
}

// dot2x2 is the micro-kernel of the trailing update: the four dot
// products of two rows of L with two rows of W in one pass, four
// accumulators in registers, each summed in index order. Reslicing to a
// common length lets the compiler drop the bounds checks in the loop.
func dot2x2(a0, a1, b0, b1 []float64) (s00, s01, s10, s11 float64) {
	a1, b0, b1 = a1[:len(a0)], b0[:len(a0)], b1[:len(a0)]
	for p, x0 := range a0 {
		x1, y0, y1 := a1[p], b0[p], b1[p]
		s00 += x0 * y0
		s01 += x0 * y1
		s10 += x1 * y0
		s11 += x1 * y1
	}
	return
}

// Solve overwrites the n x m block b with the solution X of A·X = B,
// all right-hand sides at once: interchange rows, sweep forward with L
// and backward with Lᵀ row by row, so that every inner loop is an axpy
// over one contiguous row of b and L is only ever read along its rows.
func (f *LDLT) Solve(b *Dense) {
	a, n := f.a, f.a.N
	if b.Rows != n {
		panic("linalg: LDLT.Solve dimension mismatch")
	}
	for k := 0; k < n; k++ {
		f.interchange(b, k)
	}
	// L·Y = P·B.
	for i := 1; i < n; i++ {
		bi := b.Row(i)
		for k, l := range a.Row(i)[:f.lcols(i)] {
			Axpy(-l, b.Row(k), bi)
		}
	}
	// D·Z = Y.
	for k := 0; k < n; k++ {
		bk := b.Row(k)
		if k+1 == n || f.piv[k+1] >= 0 {
			Scal(1/a.At(k, k), bk)
			continue
		}
		d := block2x2{a.At(k, k), a.At(k+1, k), a.At(k+1, k+1)}
		k++
		bk1 := b.Row(k)
		for j := range bk {
			bk[j], bk1[j] = d.solve(bk[j], bk1[j])
		}
	}
	// Lᵀ·(P·X) = Z, column-oriented: once row i is final it leaves
	// every row above it.
	for i := n - 1; i > 0; i-- {
		bi := b.Row(i)
		for k, l := range a.Row(i)[:f.lcols(i)] {
			Axpy(-l, bi, b.Row(k))
		}
	}
	for k := n - 1; k >= 0; k-- {
		f.interchange(b, k)
	}
}

// interchange swaps rows k and its pivot row of b.
func (f *LDLT) interchange(b *Dense, k int) {
	p := f.piv[k]
	if p < 0 {
		p = ^p
	}
	if p != k {
		swap(b.Row(k), b.Row(p))
	}
}

// lcols is how many leading entries of row i belong to L: all i of
// them, less the one under a 2x2 block's diagonal, which is D's.
func (f *LDLT) lcols(i int) int {
	if f.piv[i] < 0 {
		return i - 1
	}
	return i
}
