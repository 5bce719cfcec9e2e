package op

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"parbem/internal/linalg"
	"parbem/internal/sched"
)

// TestDenseApplyPackedBitwise: the packed matvec gives the same bits
// serially and at executor widths 1 to 4, and agrees with the full
// matrix's product to 1e-14 of its largest entry. The crossing pair at
// 0.4 um (N = 524) runs in nine chunks, the 3x3 bus at 1 um (N = 228) in
// two, and a serial Apply allocates nothing.
func TestDenseApplyPackedBitwise(t *testing.T) {
	for _, c := range []struct {
		name   string
		spec   Spec
		chunks int
	}{
		{"crossing", crossingSpec(t, 0.4e-6), 9},
		{"bus3x3", busSpec(t, 3, 3, 1e-6), 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			spec := c.spec.withDefaults()
			m := spec.AssembleDense()
			n := m.N
			rng := rand.New(rand.NewSource(1))
			x := make([]float64, n)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			want := make([]float64, n)
			m.Dense().MulVec(want, x)
			a := NewDenseOperator(m, spec.Panels, nil)
			if k := len(a.bounds) - 1; k != c.chunks {
				t.Fatalf("N = %d in %d chunks, want %d", n, k, c.chunks)
			}
			serial := make([]float64, n)
			a.Apply(serial, x)
			var scale, worst float64
			for i, v := range want {
				scale, worst = max(scale, math.Abs(v)), max(worst, math.Abs(serial[i]-v))
			}
			t.Logf("N = %d: %.2e of the full product's largest entry", n, worst/scale)
			if worst > 1e-14*scale {
				t.Errorf("packed product off the full one by %.2e of its largest entry", worst/scale)
			}
			if allocs := testing.AllocsPerRun(5, func() { a.Apply(serial, x) }); allocs != 0 {
				t.Errorf("a serial Apply allocates %v objects", allocs)
			}
			for w := 1; w <= 4; w++ {
				got := make([]float64, n)
				NewDenseOperator(m, spec.Panels, sched.Local(w)).Apply(got, x)
				for i, v := range got {
					if math.Float64bits(v) != math.Float64bits(serial[i]) {
						t.Fatalf("width %d: entry %d = %v, serially %v", w, i, v, serial[i])
					}
				}
			}
		})
	}
}

// randSym is an n x n packed symmetric matrix of standard normal entries.
func randSym(rng *rand.Rand, n int) *linalg.Sym {
	m := linalg.NewSym(n)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// applyBitwise applies m serially and at executor widths 1 to 4 and fails
// unless every width gives the serial bits; it returns the serial product.
func applyBitwise(t *testing.T, m *linalg.Sym, x []float64) []float64 {
	t.Helper()
	serial := make([]float64, m.N)
	NewDenseOperator(m, nil, nil).Apply(serial, x)
	for w := 1; w <= 4; w++ {
		got := make([]float64, m.N)
		NewDenseOperator(m, nil, sched.Local(w)).Apply(got, x)
		for i, v := range got {
			if math.Float64bits(v) != math.Float64bits(serial[i]) {
				t.Fatalf("N = %d, width %d: entry %d = %v, serially %v", m.N, w, i, v, serial[i])
			}
		}
	}
	return serial
}

// TestDenseApplyParallelMatchesSerial: on random symmetric matrices of
// sizes from one chunk to three, the parallel Apply gives the serial bits
// and the full matrix's product to 1e-14 of its largest entry.
func TestDenseApplyParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{5, 63, 64, 200, 301} {
		m := randSym(rng, n)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := applyBitwise(t, m, x)
		want := make([]float64, n)
		m.Dense().MulVec(want, x)
		var scale, worst float64
		for i, v := range want {
			scale, worst = max(scale, math.Abs(v)), max(worst, math.Abs(got[i]-v))
		}
		if worst > 1e-14*scale {
			t.Errorf("N = %d: packed product off the full one by %.2e of its largest entry", n, worst/scale)
		}
	}
}

// TestDenseApplyChunkCutoff: Apply's row chunks follow N alone. Up to
// denseChunk packed entries (N = 180) the rows are one chunk and one more
// row makes two; from N = 701 the count stays at denseChunks. The chunks
// cover the rows in order, each within one row's entries of an equal
// share, and every width gives the serial bits on either side of each cut.
func TestDenseApplyChunkCutoff(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, c := range []struct{ n, chunks int }{
		{180, 1}, {181, 2}, {700, 15}, {701, 16}, {900, 16},
	} {
		m := randSym(rng, c.n)
		b := NewDenseOperator(m, nil, nil).bounds
		if k := len(b) - 1; k != c.chunks {
			t.Fatalf("N = %d in %d chunks, want %d", c.n, k, c.chunks)
		}
		if b[0] != 0 || b[len(b)-1] != c.n {
			t.Fatalf("N = %d: chunks cover rows [%d, %d)", c.n, b[0], b[len(b)-1])
		}
		share := linalg.PackedLen(c.n) / c.chunks
		for k := 0; k < c.chunks; k++ {
			entries := linalg.PackedLen(b[k+1]) - linalg.PackedLen(b[k])
			if b[k+1] <= b[k] || entries > share+c.n || entries < share-c.n {
				t.Fatalf("N = %d: chunk %d is rows [%d, %d), %d entries, share %d", c.n, k, b[k], b[k+1], entries, share)
			}
		}
		x := make([]float64, c.n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		applyBitwise(t, m, x)
	}
}

// TestAssembleDenseAllocatesPackedMatrix: a dense assembly without a
// previous matrix to rewrite, of the crossing pair at 0.4 um (N = 524)
// through a class table that holds its classes, allocates its packed
// triangle, 8 N(N+1)/2 bytes, and at most 64 KiB besides — where a full
// matrix alone is 8 N².
func TestAssembleDenseAllocatesPackedMatrix(t *testing.T) {
	spec := crossingSpec(t, 0.4e-6).withDefaults()
	spec.Exec = sched.Local(1)
	spec.AssembleDense()
	spec.AssembleDense()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := spec.AssembleDense()
	runtime.ReadMemStats(&after)
	n, got := m.N, after.TotalAlloc-before.TotalAlloc
	packed := uint64(8 * linalg.PackedLen(n))
	t.Logf("N = %d: %d bytes, packed triangle %d, full matrix %d", n, got, packed, 8*n*n)
	if n != 524 || got > packed+64<<10 {
		t.Errorf("N = %d: an assembly allocates %d bytes, want at most %d + 64 KiB", n, got, packed)
	}
}
