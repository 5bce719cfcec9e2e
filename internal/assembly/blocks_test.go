package assembly

import (
	"math"
	"testing"

	"parbem/internal/basis"
	"parbem/internal/geom"
	"parbem/internal/kernel"
	"parbem/internal/linalg"
	"parbem/internal/sched"
)

// TestFillUpperSplitsLargeBlocks: a plate fine enough that its face group's
// own block, and its block against the other plate's, hold more than
// pieceMax pairs is filled in row ranges, run as several tasks — and the
// matrix is bitwise PairInto's pair by pair, with the same counts, at one,
// two and three workers.
func TestFillUpperSplitsLargeBlocks(t *testing.T) {
	cfg := kernel.DefaultConfig()
	panels := plates(0.5e-6).Panelize(0.4e-6)
	n := len(panels)
	f := InternPanels(cfg, nil, panels)
	splitDiag, splitOff := false, false
	starts := f.tasks()
	for pos := starts[0]; pos != starts[len(starts)-1]; {
		p, _ := f.piece(pos)
		if A := &f.groups[p.a]; p.rlo != A.lo || p.rhi != A.hi {
			splitDiag, splitOff = splitDiag || p.a == p.b, splitOff || p.a != p.b
		}
		pos = f.after(p)
	}
	if !splitDiag || !splitOff || len(starts) < 3 {
		t.Fatalf("%d panels in %d groups, %d tasks: diagonal block split %v, off-diagonal %v", n, len(f.groups), len(starts)-1, splitDiag, splitOff)
	}
	want := make([]float64, n*n)
	var wantFill FillStats
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			want[i*n+j] = kernel.Scale(f.PairInto(i, j, &wantFill))
		}
	}
	var first FillStats
	for _, workers := range []int{1, 2, 3} {
		m := linalg.NewSym(n)
		_, fill := InternPanels(cfg, nil, panels).FillUpper(sched.Local(workers), m, nil)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				if math.Float64bits(m.At(i, j)) != math.Float64bits(want[i*n+j]) {
					t.Fatalf("%d workers: P[%d][%d] = %v, pair by pair %v", workers, i, j, m.At(i, j), want[i*n+j])
				}
			}
		}
		if workers == 1 {
			first = fill
		}
		if fill.PairsNear != wantFill.PairsNear || fill.PairsFar != wantFill.PairsFar || fill.PairMemo != first.PairMemo || fill.PairMemo == 0 {
			t.Errorf("%d workers: %d near (%d from memos), %d far; pair by pair %d near, %d far; one worker %d from memos",
				workers, fill.PairsNear, fill.PairMemo, fill.PairsFar, wantFill.PairsNear, wantFill.PairsFar, first.PairMemo)
		}
	}
}

// TestFillUpperInPlaceOneTriangle: a rigid-motion variant — the top plate
// raised, the bottom one kept — filled in place over the packed matrix of
// the geometry before it is bitwise a fresh fill of the variant, every
// packed entry, at one, two and four workers, whose tasks write every
// value they compute once, into the lower triangle. It keeps exactly the
// pairs within one plate and computes the rest.
func TestFillUpperInPlaceOneTriangle(t *testing.T) {
	cfg := kernel.DefaultConfig()
	before, after := plates(0.5e-6).Panelize(1e-6), plates(0.7e-6).Panelize(1e-6)
	n := len(after)
	class := make([]int32, n)
	for i, p := range after {
		class[i] = int32(p.Conductor)
	}
	var kept int64
	for i := range n {
		for j := i; j < n; j++ {
			if class[i] == class[j] {
				kept++
			}
		}
	}
	want := linalg.NewSym(n)
	_, cold := InternPanels(cfg, nil, after).FillUpper(sched.Local(1), want, nil)
	for _, workers := range []int{1, 2, 4} {
		m := linalg.NewSym(n)
		InternPanels(cfg, nil, before).FillUpper(sched.Local(workers), m, nil)
		nr, fill := InternPanels(cfg, nil, after).FillUpper(sched.Local(workers), m, class)
		for i := 0; i < n; i++ {
			for j, v := range m.Row(i) {
				if math.Float64bits(v) != math.Float64bits(want.At(i, j)) {
					t.Fatalf("%d workers: P[%d][%d] = %v, a fresh fill's %v", workers, i, j, v, want.At(i, j))
				}
			}
		}
		if nr != kept || nr+fill.PairsNear+fill.PairsFar != cold.PairsNear+cold.PairsFar {
			t.Errorf("%d workers: %d kept, %d near, %d far; want %d kept of %d pairs", workers, nr, fill.PairsNear, fill.PairsFar, kept, cold.PairsNear+cold.PairsFar)
		}
	}
}

// irregularPanels are panels of which no two consecutive ones share a
// class, one of them too thin for the lattice to describe: every group has
// one member and one has no class.
func irregularPanels() []geom.Panel {
	var out []geom.Panel
	for k := range 12 {
		u := float64(k) * 2e-6
		r := geom.Rect{Normal: geom.Z, Offset: float64(k%3) * 1e-6,
			U: geom.Interval{Lo: u, Hi: u + (1+0.1*float64(k))*1e-6}, V: geom.Interval{Lo: 0, Hi: 1e-6}}
		if k == 5 {
			r.U.Hi = u + 1e-22
		}
		out = append(out, geom.Panel{Rect: r, Conductor: k % 2})
	}
	return out
}

// TestBlockGateModes fills every block of three panelizations whole, one at
// a time, and checks it against PairInto pair by pair: every value bitwise,
// the near and far counts exactly, and the mode the block's bounds chose —
// pair by pair through PairInto, all far, all near, or gated pair by pair —
// borne out by its pairs. The crossing pair's long faces see each other
// across the far gate, so some of its blocks are split by it, with pairs on
// both sides; the 4x4 bus at 1 um is near throughout; the irregular panels
// are single-member groups, one without a class.
func TestBlockGateModes(t *testing.T) {
	var modes [4]int
	split := 0
	for _, c := range []struct {
		name   string
		panels []geom.Panel
	}{
		{"crossing", geom.DefaultCrossingPair().Build().Panelize(0.4e-6)},
		{"bus4x4", geom.DefaultBus(4, 4).Build().Panelize(1e-6)},
		{"irregular", irregularPanels()},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := kernel.DefaultConfig()
			panels := c.panels
			n := len(panels)
			f := InternPanels(cfg, nil, panels)
			ref := InternPanels(cfg, nil, panels)
			if c.name == "irregular" && (len(f.groups) != n || f.groups[5].cls != nil || f.groups[4].cls == nil) {
				t.Fatalf("%d groups of %d panels, the thin one's class %v", len(f.groups), n, f.groups[5].cls)
			}
			m := linalg.NewSym(n)
			var w blockScratch
			for a := range f.groups {
				for b := a; b < len(f.groups); b++ {
					A := &f.groups[a]
					mode := w.prepare(f, A, &f.groups[b])
					modes[mode]++
					var got, want FillStats
					f.fillPiece(&w, blockPiece{int32(a), int32(b), A.lo, A.hi}, m, nil, &got)
					for i := A.lo; i < A.hi; i++ {
						for j := max(i, f.groups[b].lo); j < f.groups[b].hi; j++ {
							v := kernel.Scale(ref.PairInto(int(i), int(j), &want))
							if math.Float64bits(m.At(int(i), int(j))) != math.Float64bits(v) {
								t.Fatalf("block (%d, %d), mode %d: P[%d][%d] = %v, pair by pair %v", a, b, mode, i, j, m.At(int(i), int(j)), v)
							}
						}
					}
					if got.PairsNear != want.PairsNear || got.PairsFar != want.PairsFar {
						t.Fatalf("block (%d, %d), mode %d: %d near, %d far; pair by pair %d, %d", a, b, mode, got.PairsNear, got.PairsFar, want.PairsNear, want.PairsFar)
					}
					switch {
					case mode == blockFar && want.PairsNear != 0, mode == blockNear && want.PairsFar != 0:
						t.Errorf("block (%d, %d), mode %d: %d near and %d far pairs", a, b, mode, want.PairsNear, want.PairsFar)
					case mode == blockMixed && want.PairsNear > 0 && want.PairsFar > 0:
						split++
					}
				}
			}
		})
	}
	t.Logf("blocks pair by pair %d, far %d, near %d, gated %d (%d with pairs on both sides)",
		modes[blockDirect], modes[blockFar], modes[blockNear], modes[blockMixed], split)
	if modes[blockDirect] == 0 || modes[blockFar] == 0 || modes[blockNear] == 0 || split == 0 {
		t.Errorf("a mode no block took, or no block split by the far gate")
	}
}

// TestFillUpperScratchReused: through a table that has served a fill
// before, a fill takes its tables and memos from the table's free list —
// what it allocates does not grow with the panels.
func TestFillUpperScratchReused(t *testing.T) {
	cfg := kernel.DefaultConfig()
	for _, panels := range [][]geom.Panel{
		geom.DefaultBus(2, 2).Build().Panelize(1e-6),
		geom.DefaultCrossingPair().Build().Panelize(0.4e-6),
	} {
		f := InternPanels(cfg, NewPairCache(0), panels)
		m := linalg.NewSym(len(panels))
		f.FillUpper(sched.Local(1), m, nil)
		allocs := testing.AllocsPerRun(5, func() { f.FillUpper(sched.Local(1), m, nil) })
		t.Logf("%d panels in %d groups: %v objects a fill", len(panels), len(f.groups), allocs)
		if allocs > 5 {
			t.Errorf("%d panels: %v objects a fill, want the task list and the closure's few", len(panels), allocs)
		}
	}
}

// TestClassBlocksSlabs: a template fill's block tables are four objects —
// their header, the block headers, the cells and the memo — whatever the
// number of templates, once the class table's free list holds the
// builder's scratch (a cold table adds the scratch and its two buffers).
func TestClassBlocksSlabs(t *testing.T) {
	for _, n := range []int{3, 8, 16, 24} {
		f := NewIntegrator().Intern(basis.Build(geom.DefaultBus(n, n).Build(), basis.BuilderOptions{}))
		b := f.classBlocks()
		allocs := testing.AllocsPerRun(5, func() { f.classBlocks() })
		t.Logf("%dx%d bus: %d templates in %d groups, %d cells (%d KB of memo), %v objects", n, n, len(f.tpl), len(f.groups), len(b.memo), len(b.memo)*8>>10, allocs)
		if allocs != 4 {
			t.Errorf("%dx%d bus: the block tables are %v objects, want 4", n, n, allocs)
		}
	}
}
