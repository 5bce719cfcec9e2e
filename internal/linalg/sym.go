package linalg

// Sym is a symmetric n x n matrix held as its row-packed lower triangle:
// row i holds entries (i, 0..i) at offset i(i+1)/2, n(n+1)/2 doubles in
// all (LAPACK's packed storage, by rows). Every access of the
// factorization reads a lower-triangle row or column, so it needs no
// more.
type Sym struct {
	N    int
	Data []float64 // len == PackedLen(N)
}

// PackedLen is the length of the packed lower triangle of n rows.
func PackedLen(n int) int { return n * (n + 1) / 2 }

// NewSym allocates a zeroed symmetric n x n matrix.
func NewSym(n int) *Sym { return &Sym{N: n, Data: make([]float64, PackedLen(n))} }

// Row returns a view of packed row i: entries (i, 0..i).
func (s *Sym) Row(i int) []float64 { return s.Data[PackedLen(i) : PackedLen(i)+i+1] }

// At returns entry (i, j) of the symmetric matrix.
func (s *Sym) At(i, j int) float64 { return s.Row(max(i, j))[min(i, j)] }

// Dense returns the full matrix, both triangles written.
func (s *Sym) Dense() *Dense {
	d := NewDense(s.N, s.N)
	for i := 0; i < s.N; i++ {
		for j, v := range s.Row(i) {
			d.Data[i*s.N+j], d.Data[j*s.N+i] = v, v
		}
	}
	return d
}

// PackLower packs the lower triangle of the square matrix m into the
// front of m's own storage and returns it as a Sym sharing that storage,
// so m is consumed: nothing is allocated. Row i moves to an offset no
// later than where it was and ends before row i+1 begins.
func PackLower(m *Dense) *Sym {
	if m.Rows != m.Cols {
		panic("linalg: PackLower of non-square matrix")
	}
	n := m.Rows
	for i := 1; i < n; i++ {
		copy(m.Data[PackedLen(i):], m.Data[i*n:i*n+i+1])
	}
	return &Sym{N: n, Data: m.Data[:PackedLen(n)]}
}
