package assembly

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"parbem/internal/kernel"
	"parbem/internal/linalg"
	"parbem/internal/sched"
)

const (
	// groupMax bounds the members of a group: a rank fits in a uint16, and
	// building a group's extent lists stays cheap whatever the mesh.
	groupMax = 1 << 12
	// tableMax bounds a block's per-axis tables and its memo, in entries; a
	// block above it is filled pair by pair.
	tableMax = 1 << 16
	// pieceMax is the pair count of a task: a block with more pairs is cut
	// into row ranges of about this many, and consecutive smaller blocks
	// are run as one task until they add up to it.
	pieceMax = 1 << 15
)

// tplGroup is a maximal run of consecutive interned panels of one class,
// cut every groupMax members (see "Blocks" in the package comment).
type tplGroup struct {
	lo, hi int32     // members: panels [lo, hi)
	cls    *tplClass // their class; nil: the block fill asks PairInto pair by pair
	// reps[rep[ax]:rep[ax+1]] holds, in ascending order of (lo, hi), one
	// member for each distinct extent the members take along axis ax.
	rep        [4]int32
	dmin, dmax float64 // smallest and largest member diameter
}

// group builds the groups of the interned panels, their members' ranks and
// the groups' extent lists.
func (f *Interned) group() {
	n := len(f.tpl)
	runEnd := func(lo int) int {
		hi := lo + 1
		for hi < n && hi-lo < groupMax && f.tpl[hi].cls == f.tpl[lo].cls {
			hi++
		}
		return hi
	}
	ng := 0
	for lo := 0; lo < n; lo = runEnd(lo) {
		ng++
	}
	f.groups = make([]tplGroup, 0, ng)
	f.rank = make([][3]uint16, n)
	f.reps = make([]int32, 0, n)
	for lo := 0; lo < n; {
		hi := runEnd(lo)
		g := tplGroup{lo: int32(lo), hi: int32(hi), cls: f.tpl[lo].cls, dmin: math.Inf(1)}
		for ax := range 3 {
			base := len(f.reps)
			g.rep[ax] = int32(base)
			for i := lo; i < hi; i++ {
				if k, ok := f.findExtent(f.reps[base:], ax, i); !ok {
					f.reps = slices.Insert(f.reps, base+k, int32(i))
				}
			}
			for i := lo; i < hi; i++ {
				k, _ := f.findExtent(f.reps[base:], ax, i)
				f.rank[i][ax] = uint16(k)
			}
		}
		g.rep[3] = int32(len(f.reps))
		for i := lo; i < hi; i++ {
			g.dmin, g.dmax = min(g.dmin, f.tpl[i].diam), max(g.dmax, f.tpl[i].diam)
		}
		f.groups = append(f.groups, g)
		lo = hi
	}
}

// findExtent searches the extent list d, ascending along ax, for panel i's
// extent.
func (f *Interned) findExtent(d []int32, ax, i int) (int, bool) {
	t := &f.tpl[i]
	return slices.BinarySearchFunc(d, i, func(r int32, _ int) int {
		e := &f.tpl[r]
		return cmp.Or(cmp.Compare(e.lo[ax], t.lo[ax]), cmp.Compare(e.hi[ax], t.hi[ax]))
	})
}

// gap2 is the square of the gap between two extents along one axis, 0 when
// they overlap: the term PairInto adds to d2 for that axis.
func gap2(alo, ahi, blo, bhi float64) float64 {
	if g := blo - ahi; g > 0 {
		return float64(g * g)
	}
	if g := alo - bhi; g > 0 {
		return float64(g * g)
	}
	return 0
}

// FillUpper writes the upper triangle of the interned panels' scaled
// Galerkin matrix into m: entry (i, j), i <= j, is kernel.Scale(PairInto(i,
// j), eps) to the bit, panel i the target, except that an entry whose two
// panels share a non-negative class in class is copied from prev (nil: none
// is). The blocks of the panel groups run as tasks on ex, each with
// scratch from the class table's free list (see "Blocks"). It returns the
// number of entries copied and the pair work of the rest. f must hold
// panels.
func (f *Interned) FillUpper(ex sched.Executor, m, prev *linalg.Dense, class []int32, eps float64) (int64, FillStats) {
	starts := f.tasks()
	var mu sync.Mutex // guards the two totals
	var reused int64
	var fill FillStats
	ex.Map(len(starts)-1, func(t int) {
		w := f.pairs.takeScratch()
		var c FillStats
		var nr int64
		for pos := starts[t]; pos != starts[t+1]; {
			p, _ := f.piece(pos)
			nr += f.fillPiece(w, p, m, prev, class, eps, &c)
			pos = f.after(p)
		}
		f.pairs.release(w)
		mu.Lock()
		reused += nr
		fill.Add(c)
		mu.Unlock()
	})
	return reused, fill
}

// blockPiece is rows [rlo, rhi) of the block of groups a <= b: the pairs
// (i, j), i in those rows, j in group b, j >= i. As a position in the
// block order, rhi is unused.
type blockPiece struct{ a, b, rlo, rhi int32 }

// piece returns the piece that starts at pos — the rest of its block if
// that holds at most pieceMax pairs, else the next of the block's equal row
// ranges — and its pair count.
func (f *Interned) piece(pos blockPiece) (blockPiece, int64) {
	A, B := &f.groups[pos.a], &f.groups[pos.b]
	na, nb := int64(A.hi-A.lo), int64(B.hi-B.lo)
	p := pos
	if pos.a != pos.b {
		k := (na*nb + pieceMax - 1) / pieceMax
		p.rhi = min(pos.rlo+int32((na+k-1)/k), A.hi)
		return p, int64(p.rhi-p.rlo) * nb
	}
	total := na * (na + 1) / 2
	k := (total + pieceMax - 1) / pieceMax
	target := (total + k - 1) / k
	var pairs int64
	for p.rhi = pos.rlo; p.rhi < A.hi && pairs < target; p.rhi++ {
		pairs += int64(A.hi - p.rhi)
	}
	return p, pairs
}

// after returns the position that follows piece p in the block order: row
// ranges, then blocks (a, b) by b, then by a.
func (f *Interned) after(p blockPiece) blockPiece {
	switch {
	case p.rhi < f.groups[p.a].hi:
		return blockPiece{a: p.a, b: p.b, rlo: p.rhi}
	case int(p.b)+1 < len(f.groups):
		return blockPiece{a: p.a, b: p.b + 1, rlo: f.groups[p.a].lo}
	case int(p.a)+1 < len(f.groups):
		return blockPiece{a: p.a + 1, b: p.a + 1, rlo: f.groups[p.a+1].lo}
	}
	return blockPiece{a: int32(len(f.groups))}
}

// tasks cuts the block order into runs of pieces of at least pieceMax
// pairs (the last may hold fewer) and returns where each starts, then the
// end. The cut depends on the panels alone, never on the executor, so the
// fill's counts repeat at any width.
func (f *Interned) tasks() []blockPiece {
	end := blockPiece{a: int32(len(f.groups))}
	if len(f.groups) == 0 {
		return []blockPiece{end}
	}
	pos := blockPiece{rlo: f.groups[0].lo}
	n := int64(len(f.tpl))
	starts := append(make([]blockPiece, 0, n*(n+1)/2/pieceMax+2), pos) // every task but the last holds pieceMax pairs
	var acc int64
	for pos != end {
		p, pairs := f.piece(pos)
		acc += pairs
		if pos = f.after(p); acc >= pieceMax && pos != end {
			starts, acc = append(starts, pos), 0
		}
	}
	return append(starts, end)
}

// Block modes: how a piece's pairs are decided.
const (
	blockDirect = iota // PairInto pair by pair
	blockFar           // every pair is far: no gate, no memo
	blockNear          // every pair is near: no gate
	blockMixed         // the far gate per pair, then the memo
)

// blockScratch is one worker's tables for a block: per axis, the gap² and
// the premultiplied rank of centre2 for every (A extent, B extent) pair,
// and the memo of scaled values by cell, valid where stamp == epoch.
type blockScratch struct {
	nb     [3]int // B's extent count per axis: the tables' row length
	gap    [3][]float64
	cell   [3][]int32
	c2     []int64 // one axis's centre2 values
	sorted []int64 // their distinct values, ascending
	memo   []float64
	stamp  []uint32
	epoch  uint32
}

// takeScratch takes block scratch from c's free list (nil c: none has
// any).
func (c *PairCache) takeScratch() *blockScratch {
	if c == nil {
		return new(blockScratch)
	}
	c.blocks.Lock()
	defer c.blocks.Unlock()
	if n := len(c.blocks.free); n > 0 {
		w := c.blocks.free[n-1]
		c.blocks.free = c.blocks.free[:n-1]
		return w
	}
	return new(blockScratch)
}

// release gives w back to c's free list.
func (c *PairCache) release(w *blockScratch) {
	if c == nil {
		return
	}
	c.blocks.Lock()
	c.blocks.free = append(c.blocks.free, w)
	c.blocks.Unlock()
}

// resize returns s with length n, reallocated only when it is too short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// prepare builds w's tables for the block (A, B) and returns the block's
// mode. The far gate's bounds compare the largest gap with the smallest
// diameters and the smallest gap with the largest, in the gate's own
// arithmetic, which rounds monotonically: a block they decide is decided
// the same way pair by pair.
func (w *blockScratch) prepare(f *Interned, A, B *tplGroup) int {
	if A.cls == nil || B.cls == nil || A.hi-A.lo == 1 && B.hi-B.lo == 1 {
		return blockDirect
	}
	var ra, rb [3][]int32
	for ax := range 3 {
		ra[ax], rb[ax] = f.reps[A.rep[ax]:A.rep[ax+1]], f.reps[B.rep[ax]:B.rep[ax+1]]
		if len(ra[ax])*len(rb[ax]) > tableMax {
			return blockDirect
		}
	}
	var lo, hi [3]float64 // smallest and largest gap² per axis
	for ax := range 3 {
		w.nb[ax] = len(rb[ax])
		g := resize(w.gap[ax], len(ra[ax])*len(rb[ax]))
		w.gap[ax] = g
		lo[ax] = math.Inf(1)
		for x, ia := range ra[ax] {
			a := &f.tpl[ia]
			for y, ib := range rb[ax] {
				b := &f.tpl[ib]
				v := gap2(a.lo[ax], a.hi[ax], b.lo[ax], b.hi[ax])
				g[x*len(rb[ax])+y] = v
				lo[ax], hi[ax] = min(lo[ax], v), max(hi[ax], v)
			}
		}
	}
	if math.Sqrt((lo[0]+lo[1])+lo[2]) > f.far*(0.5*(A.dmax+B.dmax)) {
		return blockFar
	}
	mode := blockMixed
	if math.Sqrt((hi[0]+hi[1])+hi[2]) <= f.far*(0.5*(A.dmin+B.dmin)) {
		mode = blockNear
	}
	// A cell is the rank triple of centre2, folded to |centre2| when
	// neither class varies: canon then keys on the displacement alone.
	fold := A.cls.vary == noVary && B.cls.vary == noVary
	stride := 1 // a cell is r0 + D0 (r1 + D1 r2), D the distinct counts
	for ax := range 3 {
		v := resize(w.c2, len(ra[ax])*len(rb[ax]))
		w.c2 = v
		for x, ia := range ra[ax] {
			for y, ib := range rb[ax] {
				c := f.centre2(&f.tpl[ia], &f.tpl[ib], ax)
				if fold && c < 0 {
					c = -c
				}
				v[x*len(rb[ax])+y] = c
			}
		}
		s := append(w.sorted[:0], v...)
		slices.Sort(s)
		s = slices.Compact(s)
		w.sorted = s
		if stride*len(s) > tableMax {
			return blockDirect
		}
		k := resize(w.cell[ax], len(v))
		w.cell[ax] = k
		for e, c := range v {
			r, _ := slices.BinarySearch(s, c)
			k[e] = int32(r * stride)
		}
		stride *= len(s)
	}
	w.memo, w.stamp = resize(w.memo, stride), resize(w.stamp, stride)
	if w.epoch++; w.epoch == 0 {
		clear(w.stamp)
		w.epoch = 1
	}
	return mode
}

// fillPiece fills piece p (see FillUpper) with w's tables, counting into c,
// and returns the number of entries copied from prev.
func (f *Interned) fillPiece(w *blockScratch, p blockPiece, m, prev *linalg.Dense, class []int32, eps float64, c *FillStats) (nr int64) {
	B := &f.groups[p.b]
	mode := w.prepare(f, &f.groups[p.a], B)
	for i := int(p.rlo); i < int(p.rhi); i++ {
		row := m.Row(i)
		var prow []float64
		ci := int32(-1) // no class: no entry of the row from prev
		if prev != nil {
			prow, ci = prev.Row(i), class[i]
		}
		j0 := int(B.lo)
		if p.a == p.b {
			j0 = i
		}
		// Row i's slices of the tables: valid only in the modes that built them.
		a, ra := &f.tpl[i], f.rank[i]
		var g0, g1, g2 []float64
		var k0, k1, k2 []int32
		if mode != blockDirect {
			g0, g1, g2 = w.gap[0][int(ra[0])*w.nb[0]:], w.gap[1][int(ra[1])*w.nb[1]:], w.gap[2][int(ra[2])*w.nb[2]:]
		}
		if mode == blockNear || mode == blockMixed {
			k0, k1, k2 = w.cell[0][int(ra[0])*w.nb[0]:], w.cell[1][int(ra[1])*w.nb[1]:], w.cell[2][int(ra[2])*w.nb[2]:]
		}
		for j := j0; j < int(B.hi); j++ {
			if ci >= 0 && ci == class[j] {
				row[j] = prow[j]
				nr++
				continue
			}
			if mode == blockDirect {
				row[j] = kernel.Scale(f.PairInto(i, j, c), eps)
				continue
			}
			b, rb := &f.tpl[j], &f.rank[j]
			if mode == blockFar || mode == blockMixed && f.beyond((g0[rb[0]]+g1[rb[1]])+g2[rb[2]], a, b) {
				c.PairsFar++
				row[j] = kernel.Scale(farValue(a, b), eps)
				continue
			}
			cell := k0[rb[0]] + k1[rb[1]] + k2[rb[2]]
			if w.stamp[cell] == w.epoch {
				c.PairsNear++
				c.PairMemo++
				row[j] = w.memo[cell]
				continue
			}
			v := kernel.Scale(f.PairInto(i, j, c), eps)
			w.memo[cell], w.stamp[cell] = v, w.epoch
			row[j] = v
		}
	}
	return nr
}
