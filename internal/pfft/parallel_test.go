package pfft

import (
	"testing"

	"parbem/internal/sched"
)

// TestApplyAllocFree proves the steady-state matvec allocates nothing in
// serial mode, and only constant scheduler bookkeeping when parallel —
// the same guarantees as the fmm operator.
func TestApplyAllocFree(t *testing.T) {
	panels := busPanels(t, 3, 3, 1e-6)
	n := len(panels)
	x := make([]float64, n)
	dst := make([]float64, n)
	for i := range x {
		x[i] = 1
	}

	serial := NewOperator(panels, Options{Workers: 1})
	serial.Apply(dst, x) // warm the scratch
	if allocs := testing.AllocsPerRun(10, func() {
		serial.Apply(dst, x)
	}); allocs != 0 {
		t.Fatalf("serial Apply allocates %.0f objects per call", allocs)
	}

	// Parallel mode: per-Map scheduler bookkeeping only — a job, its done
	// channel and, on Local, one goroutine closure per extra worker — for
	// each Map call of Apply and of the grid's line transforms,
	// independent of the panel count.
	local := NewOperator(panels, Options{Workers: 2})
	pool := sched.NewPool(4)
	defer pool.Close()
	pooled := NewOperator(panels, Options{Pool: pool})
	for _, tc := range []struct {
		name string
		op   *Operator
	}{{"Workers: 2", local}, {"pooled", pooled}} {
		tc.op.Apply(dst, x)
		allocs := testing.AllocsPerRun(10, func() { tc.op.Apply(dst, x) })
		t.Logf("%s Apply: %.0f objects per call", tc.name, allocs)
		if allocs > 60 && !raceBuild {
			t.Errorf("%s Apply allocates %.0f objects per call (want <= 60); the scheduler or the grid loops started allocating", tc.name, allocs)
		}
	}
}

// TestConcurrentAppliesMatchSerial exercises the scratch overflow path:
// many goroutines applying the same operator concurrently must all get
// the bit-exact serial answer (concurrent solves may share one
// operator).
func TestConcurrentAppliesMatchSerial(t *testing.T) {
	panels := busPanels(t, 2, 2, 1.5e-6)
	n := len(panels)
	op := NewOperator(panels, Options{Workers: 1})
	const g = 8
	xs := make([][]float64, g)
	want := make([][]float64, g)
	for k := 0; k < g; k++ {
		xs[k] = make([]float64, n)
		for i := range xs[k] {
			xs[k][i] = float64((i*7+k)%13) - 6
		}
		want[k] = make([]float64, n)
		op.Apply(want[k], xs[k])
	}
	got := make([][]float64, g)
	done := make(chan int, g)
	for k := 0; k < g; k++ {
		got[k] = make([]float64, n)
		go func(k int) {
			op.Apply(got[k], xs[k])
			done <- k
		}(k)
	}
	for k := 0; k < g; k++ {
		<-done
	}
	for k := 0; k < g; k++ {
		for i := range got[k] {
			if got[k][i] != want[k][i] {
				t.Fatalf("concurrent Apply %d differs at %d: %g vs %g",
					k, i, got[k][i], want[k][i])
			}
		}
	}
}

// TestNearBlocksPartition verifies the precorrection clusters exposed to
// the preconditioner: disjoint, covering every panel, with a positive
// diagonal, each block the operator's stored entries, and those entries
// symmetric. A packed block holds only its lower triangle, so the
// symmetry is checked on the stored entries (i, j) and (j, i).
func TestNearBlocksPartition(t *testing.T) {
	panels := busPanels(t, 3, 3, 1e-6)
	op := NewOperator(panels, Options{Workers: 1})
	stored := func(i, j int32) float64 {
		for k, c := range op.nearIdx[i] {
			if c == j {
				return op.nearExact[i][k]
			}
		}
		return 0
	}
	idx, block := op.NearBlocks()
	seen := make([]bool, len(panels))
	offDiag := 0
	for k, ix := range idx {
		blk := block(k)
		if blk.N != len(ix) {
			t.Fatalf("block %d of order %d for %d unknowns", k, blk.N, len(ix))
		}
		for r, pi := range ix {
			if seen[pi] {
				t.Fatalf("panel %d in two clusters", pi)
			}
			seen[pi] = true
			diag := blk.At(r, r)
			if diag <= 0 {
				t.Fatalf("block %d diagonal %d not positive", k, r)
			}
			for c, pj := range ix {
				a, bb := stored(pi, pj), stored(pj, pi)
				if c <= r && blk.At(r, c) != a {
					t.Fatalf("block %d entry (%d,%d) = %g, stored %g", k, r, c, blk.At(r, c), a)
				}
				// Rows are integrated independently and the quadrature
				// is not bit-symmetric in argument order; bound the
				// asymmetry at the quadrature level.
				if d := a - bb; d > 1e-6*diag || d < -1e-6*diag {
					t.Fatalf("block %d asymmetric at (%d,%d): %g vs %g", k, r, c, a, bb)
				}
				if c != r && a != 0 {
					offDiag++
				}
			}
		}
	}
	if offDiag == 0 {
		t.Fatal("no stored off-diagonal entry in any block: the symmetry check saw nothing")
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("panel %d uncovered", i)
		}
	}
}

// BenchmarkPFFTApply measures the steady-state matvec (serial) in both
// precisions on the same operator (the fp64/mixed delta is the headline
// bandwidth win of the float32 mirror).
func BenchmarkPFFTApply(b *testing.B) {
	panels := busPanels(b, 4, 4, 1e-6)
	op := NewOperator(panels, Options{Workers: 1})
	op.EnableMixed()
	x := make([]float64, len(panels))
	dst := make([]float64, len(panels))
	for i := range x {
		x[i] = 1
	}
	b.Run("fp64", func(b *testing.B) {
		op.Apply(dst, x)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op.Apply(dst, x)
		}
	})
	b.Run("mixed", func(b *testing.B) {
		op.ApplyMixed(dst, x)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op.ApplyMixed(dst, x)
		}
	})
}
