package linalg

import (
	"errors"
	"math"
)

// QR is the least-squares reference of the GMRES tests (space_test.go's
// per-step minimum): nothing outside the tests solves by QR.
//
// QR holds a Householder QR factorization of an m x n matrix (m >= n).
// Reflector vectors are stored in and below the diagonal of qr; the strict
// upper triangle of qr holds R's off-diagonal entries, and diag holds R's
// diagonal.
type QR struct {
	qr   *Dense
	beta []float64 // leading reflector components v_k
	diag []float64 // R_kk
}

// NewQR factorizes a copy of A (m >= n required).
func NewQR(a *Dense) (*QR, error) {
	m, n := a.Rows, a.Cols
	if m < n {
		return nil, errors.New("linalg: QR requires rows >= cols")
	}
	f := &QR{qr: a.Clone(), beta: make([]float64, n), diag: make([]float64, n)}
	qr := f.qr
	for k := 0; k < n; k++ {
		// Column norm below the diagonal.
		var norm float64
		for i := k; i < m; i++ {
			v := qr.At(i, k)
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			f.beta[k] = 0
			f.diag[k] = 0
			continue
		}
		if qr.At(k, k) > 0 {
			norm = -norm
		}
		for i := k; i < m; i++ {
			qr.Set(i, k, qr.At(i, k)/norm)
		}
		qr.Set(k, k, qr.At(k, k)+1)
		f.beta[k] = qr.At(k, k)
		f.diag[k] = -norm // R_kk
		// Apply the reflector to trailing columns.
		for j := k + 1; j < n; j++ {
			var s float64
			for i := k; i < m; i++ {
				s += qr.At(i, k) * qr.At(i, j)
			}
			s = -s / qr.At(k, k)
			for i := k; i < m; i++ {
				qr.Add(i, j, s*qr.At(i, k))
			}
		}
	}
	return f, nil
}

// LeastSquares solves min_x ||A x - b||_2, returning x of length n.
// It returns ErrSingular if R is rank-deficient.
func (f *QR) LeastSquares(b []float64) ([]float64, error) {
	m, n := f.qr.Rows, f.qr.Cols
	if len(b) != m {
		return nil, errors.New("linalg: LeastSquares dimension mismatch")
	}
	y := make([]float64, m)
	copy(y, b)
	// Apply Q^T to y reflector by reflector.
	for k := 0; k < n; k++ {
		if f.beta[k] == 0 {
			continue
		}
		var s float64
		for i := k; i < m; i++ {
			s += f.qr.At(i, k) * y[i]
		}
		s = -s / f.qr.At(k, k)
		for i := k; i < m; i++ {
			y[i] += s * f.qr.At(i, k)
		}
	}
	// Back-substitute R x = y[:n].
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= f.qr.At(i, j) * x[j]
		}
		d := f.diag[i]
		if d == 0 || math.IsNaN(d) {
			return nil, ErrSingular
		}
		x[i] = s / d
	}
	return x, nil
}

// Residual returns ||A x - b||_2.
func Residual(a *Dense, x, b []float64) float64 {
	r := make([]float64, a.Rows)
	a.MulVec(r, x)
	for i := range r {
		r[i] -= b[i]
	}
	return Norm2(r)
}
