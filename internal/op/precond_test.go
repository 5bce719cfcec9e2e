package op

import (
	"math"
	"runtime"
	"testing"

	"parbem/internal/fmm"
	"parbem/internal/linalg"
)

// packed hands the dense blocks to NewBlockJacobiWith as NearBlocker
// does: a fresh packed lower triangle per call.
func packed(blocks ...*linalg.Dense) func(k int) *linalg.Sym {
	return func(k int) *linalg.Sym { return linalg.PackLower(blocks[k].Clone()) }
}

// TestBlockJacobiSolvesBlockDiagonalExactly pins the preconditioner's
// algebra: on a block-diagonal SPD matrix, Apply must be the exact
// inverse.
func TestBlockJacobiSolvesBlockDiagonalExactly(t *testing.T) {
	// Two blocks: a 3x3 SPD block over {0, 2, 4} and a 2x2 over {1, 3};
	// unknown 5 is uncovered with diagonal 4.
	n := 6
	a := linalg.NewDenseFrom(3, 3, []float64{4, 1, 0.5, 1, 3, 0.25, 0.5, 0.25, 2})
	b := linalg.NewDenseFrom(2, 2, []float64{2, 0.5, 0.5, 1})
	idx := [][]int32{{0, 2, 4}, {1, 3}}
	diag := []float64{4, 2, 3, 1, 2, 4}
	bj, err := NewBlockJacobiWith(n, idx, packed(a, b), diag, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bj.Blocks() != 2 {
		t.Fatalf("got %d blocks, want 2", bj.Blocks())
	}
	r := []float64{1, -2, 3, 0.5, -1, 8}
	dst := make([]float64, n)
	bj.Apply(dst, r)

	// Verify each block: A * dst[idx] == r[idx].
	checkBlock := func(m *linalg.Dense, ix []int32) {
		k := len(ix)
		for row := 0; row < k; row++ {
			var s float64
			for col := 0; col < k; col++ {
				s += m.At(row, col) * dst[ix[col]]
			}
			if math.Abs(s-r[ix[row]]) > 1e-12 {
				t.Errorf("block solve residual %g at unknown %d", s-r[ix[row]], ix[row])
			}
		}
	}
	checkBlock(a, idx[0])
	checkBlock(b, idx[1])
	if math.Abs(dst[5]-8.0/4.0) > 1e-15 {
		t.Errorf("uncovered unknown got %g, want point-Jacobi 2", dst[5])
	}
}

// TestBlockJacobiRejectsOverlap guards the disjointness contract.
func TestBlockJacobiRejectsOverlap(t *testing.T) {
	a := linalg.NewDenseFrom(1, 1, []float64{1})
	b := linalg.NewDenseFrom(1, 1, []float64{1})
	if _, err := NewBlockJacobiWith(2, [][]int32{{0}, {0}}, packed(a, b), nil, nil); err == nil {
		t.Fatal("overlapping blocks must be rejected")
	}
}

// TestBlockJacobiIndefiniteBlockFallsBack: a block that factors with a
// negative pivot is not used as a block solve; its unknowns get the
// block's own diagonal, as a failed factorization's do, and the other
// blocks keep their factors.
func TestBlockJacobiIndefiniteBlockFallsBack(t *testing.T) {
	spd := linalg.NewDenseFrom(2, 2, []float64{2, 0.5, 0.5, 1})
	// Eigenvalues (7 ± √17)/2 and -1 under a positive diagonal: only the
	// factorization can tell.
	indef := linalg.NewDenseFrom(3, 3, []float64{2, 3, 1, 3, 2, 1, 1, 1, 2})
	idx := [][]int32{{0, 1}, {2, 3, 4}}
	calls := 0
	block := packed(spd, indef)
	bj, err := NewBlockJacobiWith(5, idx, func(k int) *linalg.Sym { calls++; return block(k) }, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Errorf("%d block copies, want 3: one per block and the fallback's diagonal", calls)
	}
	if _, f := bj.Factors(); f[0] == nil || f[1] != nil {
		t.Fatalf("factors %v: want the positive definite block's only", f)
	}
	r := []float64{1, -2, 4, 6, -8}
	dst := make([]float64, 5)
	bj.Apply(dst, r)
	for c, i := range idx[1] {
		if want := r[i] / indef.At(c, c); dst[i] != want {
			t.Errorf("unknown %d: %g, want the diagonal's %g", i, dst[i], want)
		}
	}
	// The positive definite block is still solved exactly.
	for row := 0; row < 2; row++ {
		if s := spd.At(row, 0)*dst[0] + spd.At(row, 1)*dst[1]; math.Abs(s-r[row]) > 1e-12 {
			t.Errorf("block solve residual %g at unknown %d", s-r[row], row)
		}
	}
}

// TestBlockJacobiFactorAllocation bounds what factoring the dense
// operator's near blocks allocates, on the crossing pair at 0.4 um (ten
// blocks of about 52 panels): each block is one packed triangle, factored
// where it lies. A full n x n per block, or a copy of it, is over the
// bound.
func TestBlockJacobiFactorAllocation(t *testing.T) {
	spec := crossingSpec(t, 0.4e-6).withDefaults()
	m := spec.AssembleDense()
	idx, block := NewDenseOperator(m, spec.Panels, nil).NearBlocks()
	diag := make([]float64, m.N)
	for i := range diag {
		diag[i] = m.At(i, i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	bj, err := NewBlockJacobiWith(m.N, idx, block, diag, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if _, f := bj.Factors(); len(f) != 10 {
		t.Fatalf("%d blocks, want 10", len(f))
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("N = %d: NewBlockJacobiWith allocated %d bytes", m.N, got)
	if got > 150<<10 {
		t.Errorf("NewBlockJacobiWith allocated %d bytes, over 150 KiB", got)
	}
}

// TestBlockJacobiApplyAllocFree proves the warm serial Apply path
// allocates nothing (the contract GMRESWith relies on).
func TestBlockJacobiApplyAllocFree(t *testing.T) {
	spec := busSpec(t, 3, 3, 1.5e-6).withDefaults()
	a := fmm.NewOperator(spec.Panels, fmm.Options{Workers: 1, Cfg: spec.Cfg})
	idx, block := a.NearBlocks()
	bj, err := NewBlockJacobiWith(a.Dim(), idx, block, spec.diagonal(), nil)
	if err != nil {
		t.Fatal(err)
	}
	n := a.Dim()
	r := make([]float64, n)
	dst := make([]float64, n)
	for i := range r {
		r[i] = float64(i%7) + 1
	}
	bj.Apply(dst, r) // warm
	if allocs := testing.AllocsPerRun(10, func() {
		bj.Apply(dst, r)
	}); allocs != 0 {
		t.Fatalf("warm BlockJacobi.Apply allocates %.0f objects per call", allocs)
	}
}

// TestFMMNearBlocksMatchEntries verifies the fmm operator's exposed
// blocks against the exact scaled Galerkin entries: leaf self blocks are
// integrated exactly, so every stored block entry must equal
// Spec.Entry for its panel pair, and the blocks must partition all
// unknowns.
func TestFMMNearBlocksMatchEntries(t *testing.T) {
	spec := busSpec(t, 2, 2, 1.5e-6).withDefaults()
	a := fmm.NewOperator(spec.Panels, fmm.Options{Workers: 1, Cfg: spec.Cfg})
	idx, block := a.NearBlocks()
	seen := make([]bool, spec.N())
	for k, ix := range idx {
		blk := block(k)
		for r, pi := range ix {
			if seen[pi] {
				t.Fatalf("unknown %d in two blocks", pi)
			}
			seen[pi] = true
			for c, pj := range ix[:r+1] {
				// The quadrature is not bit-symmetric in argument
				// order and each unordered pair is integrated once,
				// so allow the ~1e-8 argument-order asymmetry.
				want := spec.Entry(int(pi), int(pj))
				if got := blk.At(r, c); math.Abs(got-want) > 1e-6*math.Abs(want) {
					t.Fatalf("block %d entry (%d,%d): %g want %g", k, r, c, got, want)
				}
			}
		}
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("unknown %d uncovered", i)
		}
	}
}

// TestDenseNearBlocksFollowConductors pins the dense operator's block
// rule: every block lies in one conductor, holds at most denseBlockMax
// unknowns in ascending order and is the matrix restricted to them; the
// blocks are disjoint and cover every unknown.
func TestDenseNearBlocksFollowConductors(t *testing.T) {
	for _, tc := range []struct {
		name   string
		spec   Spec
		blocks int
	}{
		{"crossing", crossingSpec(t, 0.4e-6), 10}, // 262 panels a wire: 5 blocks each
		{"bus3x3", busSpec(t, 3, 3, 1e-6), 6},     // 38 panels a wire: its own block
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := tc.spec.withDefaults()
			m := spec.AssembleDense()
			idx, block := NewDenseOperator(m, spec.Panels, nil).NearBlocks()
			if len(idx) != tc.blocks {
				t.Errorf("%d blocks, want %d", len(idx), tc.blocks)
			}
			seen := make([]bool, spec.N())
			for k, ix := range idx {
				if len(ix) == 0 || len(ix) > denseBlockMax {
					t.Fatalf("block %d holds %d unknowns", k, len(ix))
				}
				b := block(k)
				for r, i := range ix {
					if seen[i] {
						t.Fatalf("unknown %d in two blocks", i)
					}
					seen[i] = true
					if r > 0 && ix[r-1] >= i {
						t.Fatalf("block %d not ascending at %d", k, r)
					}
					if spec.Panels[i].Conductor != spec.Panels[ix[0]].Conductor {
						t.Fatalf("block %d straddles conductors %d and %d", k,
							spec.Panels[ix[0]].Conductor, spec.Panels[i].Conductor)
					}
					for c, j := range ix[:r+1] {
						if b.Row(r)[c] != m.At(int(i), int(j)) {
							t.Fatalf("block %d entry (%d,%d) is not the matrix's (%d,%d)", k, r, c, i, j)
						}
					}
				}
			}
			for i, s := range seen {
				if !s {
					t.Fatalf("unknown %d uncovered", i)
				}
			}
		})
	}
}

// indexRanges is a dense matvec whose near blocks are runs of consecutive
// indices, which straddle faces and conductors: the rule the dense
// operator had before its blocks followed the conductors.
type indexRanges struct{ *DenseOperator }

func (d indexRanges) NearBlocks() (idx [][]int32, block func(k int) *linalg.Sym) {
	n := d.m.N
	for lo := 0; lo < n; lo += denseBlockMax {
		ix := make([]int32, min(lo+denseBlockMax, n)-lo)
		for r := range ix {
			ix[r] = int32(lo + r)
		}
		idx = append(idx, ix)
	}
	return idx, func(k int) *linalg.Sym {
		lo, w := int(idx[k][0]), len(idx[k])
		b := linalg.NewSym(w)
		for r := range w {
			copy(b.Row(r), d.m.Row(lo + r)[lo:lo+r+1])
		}
		return b
	}
}

// diagonalOnly hides an operator's near blocks: the pipeline over it gets
// the preconditioner's point-Jacobi fallback alone.
type diagonalOnly struct{ Operator }

// TestNoNearBlocksIsPointJacobi: over an operator that exposes no near
// blocks, the pipeline's preconditioner is the diagonal, bitwise: r[i]
// times 1/d_i where d_i > 0, r[i] itself where d_i <= 0.
func TestNoNearBlocksIsPointJacobi(t *testing.T) {
	spec := crossingSpec(t, 0.4e-6).withDefaults()
	pl, err := NewWithOperator(spec, diagonalOnly{NewDenseOperator(spec.AssembleDense(), spec.Panels, nil)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bj := pl.Preconditioner()
	if bj.Blocks() != 0 {
		t.Fatalf("%d blocks over an operator without near blocks", bj.Blocks())
	}
	d := spec.diagonal()
	r := make([]float64, len(d))
	for i := range r {
		r[i] = math.Sin(float64(i)) + 0.5
	}
	dst := make([]float64, len(d))
	bj.Apply(dst, r)
	for i := range d {
		if want := r[i] * (1 / d[i]); dst[i] != want {
			t.Fatalf("unknown %d: %v, want r/d = %v", i, dst[i], want)
		}
	}

	// The guard for a non-positive diagonal: such an unknown passes
	// through unscaled.
	diag := []float64{2, 0, -3, 0.5}
	bj, err = NewBlockJacobiWith(len(diag), nil, nil, diag, nil)
	if err != nil {
		t.Fatal(err)
	}
	r = []float64{1, -7, 5, 3}
	dst = make([]float64, len(diag))
	bj.Apply(dst, r)
	for i, want := range []float64{1 * (1 / 2.0), -7, 5, 3 * (1 / 0.5)} {
		if dst[i] != want {
			t.Errorf("unknown %d (d = %g): %v, want %v", i, diag[i], dst[i], want)
		}
	}
}

// TestBlockJacobiReducesIterations is the preconditioner's reason to
// exist. fmm: on a >= 2k-panel bus, block-Jacobi must strictly reduce the
// total iteration count against the diagonal alone (the same operator with
// its near blocks hidden) at equal tolerance, while producing the same
// capacitance matrix within the solve tolerance. dense: blocks that are
// spatial clusters of one conductor must strictly beat blocks of as many
// consecutive indices over the same matrix.
func TestBlockJacobiReducesIterations(t *testing.T) {
	t.Run("dense", func(t *testing.T) {
		spec := crossingSpec(t, 0.4e-6).withDefaults()
		m := spec.AssembleDense()
		ranges, err := NewWithOperator(spec, indexRanges{NewDenseOperator(m, spec.Panels, nil)}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rres, err := extract(ranges)
		if err != nil {
			t.Fatal(err)
		}
		clusters, err := NewPrebuilt(spec, Options{}, Prebuilt{Dense: m})
		if err != nil {
			t.Fatal(err)
		}
		cres, err := extract(clusters)
		if err != nil {
			t.Fatal(err)
		}
		if cres.Iterations >= rres.Iterations {
			t.Errorf("clusters did not reduce iterations: %d vs index ranges %d", cres.Iterations, rres.Iterations)
		}
		t.Logf("N=%d: index ranges %d iterations, clusters %d", spec.N(), rres.Iterations, cres.Iterations)
		if d := capDiff(cres, rres); d > 2e-4 {
			t.Errorf("results deviate by %g", d)
		}
	})
	t.Run("fmm", testBlockJacobiReducesIterationsFMM)
}

func testBlockJacobiReducesIterationsFMM(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second fmm construction and solves")
	}
	spec := busSpec(t, 8, 8, 0.75e-6).withDefaults()
	if spec.N() < 2000 {
		t.Fatalf("test geometry too small: N=%d, want >= 2000", spec.N())
	}
	a := fmm.NewOperator(spec.Panels, fmm.Options{Cfg: spec.Cfg})

	diagonal, err := NewWithOperator(spec, diagonalOnly{a}, Options{Tol: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	dres, err := extract(diagonal)
	if err != nil {
		t.Fatal(err)
	}
	block, err := NewWithOperator(spec, a, Options{Tol: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	bres, err := extract(block)
	if err != nil {
		t.Fatal(err)
	}
	if bres.Iterations >= dres.Iterations {
		t.Errorf("block-Jacobi did not reduce iterations: %d vs diagonal %d",
			bres.Iterations, dres.Iterations)
	}
	t.Logf("N=%d: diagonal %d iterations, block-Jacobi %d (%.1fx)",
		spec.N(), dres.Iterations, bres.Iterations,
		float64(dres.Iterations)/float64(bres.Iterations))
	if d := capDiff(bres, dres); d > 1e-2 {
		t.Errorf("preconditioned result deviates by %g", d)
	}
}
