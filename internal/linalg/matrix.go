// Package linalg is a self-contained dense linear-algebra kit for the
// extractor: a row-major dense matrix type; a blocked Bunch–Kaufman LDLᵀ
// in packed storage (FactorSym), the one symmetric factorization, of the
// system matrix P and of the preconditioner's near blocks alike;
// Householder QR least-squares (used by rational fitting); and restarted
// GMRES (used by the piecewise-constant iterative baselines).
//
// The paper leans on vendor-optimized BLAS for the (tiny) solve step; here
// blocking and a register-tiled trailing update keep the factorization
// near one multiply-add per cycle, so that the solve stays a small
// fraction of total extraction time, which is what the paper's scaling
// argument needs.
package linalg

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewDense allocates a zeroed r x c matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("linalg: negative dimensions %dx%d", r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// NewDenseFrom wraps existing backing data (not copied).
func NewDenseFrom(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("linalg: data length %d != %d*%d", len(data), r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: data}
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add accumulates v into element (i, j).
func (m *Dense) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Row returns a view of row i (shared backing).
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	d := make([]float64, len(m.Data))
	copy(d, m.Data)
	return &Dense{Rows: m.Rows, Cols: m.Cols, Data: d}
}

// Transpose returns a newly allocated transpose.
func (m *Dense) Transpose() *Dense {
	t := NewDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// MulVec computes dst = m * x. dst must have length m.Rows and may not
// alias x.
func (m *Dense) MulVec(dst, x []float64) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic("linalg: MulVec dimension mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] = Dot(m.Row(i), x)
	}
}

// Mul computes c = a * b with an ikj loop ordering that streams rows of
// b through the unrolled Axpy kernel. c must be pre-allocated with shape
// a.Rows x b.Cols.
func Mul(c, a, b *Dense) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic("linalg: Mul dimension mismatch")
	}
	for i := range c.Data {
		c.Data[i] = 0
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for k, av := range arow {
			Axpy(av, b.Row(k), crow)
		}
	}
}

// MaxAbsDiff returns max_ij |a_ij - b_ij|; shapes must match.
func MaxAbsDiff(a, b *Dense) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("linalg: shape mismatch")
	}
	var m float64
	for i, v := range a.Data {
		d := math.Abs(v - b.Data[i])
		if d > m {
			m = d
		}
	}
	return m
}

// Dot returns the inner product of x and y. The loop is 4-way unrolled
// with independent accumulators so the FMA chains overlap; this kernel
// is the inner loop of both GMRES (Gram-Schmidt) and MulVec.
func Dot(x, y []float64) float64 {
	n := len(x)
	y = y[:n]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
	}
	for ; i < n; i++ {
		s0 += x[i] * y[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 { return math.Sqrt(Dot(x, x)) }

// Axpy computes y += a*x in place, 4-way unrolled like Dot.
func Axpy(a float64, x, y []float64) {
	n := len(x)
	y = y[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		y[i] += a * x[i]
		y[i+1] += a * x[i+1]
		y[i+2] += a * x[i+2]
		y[i+3] += a * x[i+3]
	}
	for ; i < n; i++ {
		y[i] += a * x[i]
	}
}

// Scal scales x by a in place.
func Scal(a float64, x []float64) {
	for i := range x {
		x[i] *= a
	}
}
