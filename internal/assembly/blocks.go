package assembly

import (
	"cmp"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"parbem/internal/kernel"
	"parbem/internal/linalg"
	"parbem/internal/sched"
)

const (
	// groupMax bounds the members of a group: a rank fits in a uint16, and
	// building a group's extent lists stays cheap whatever the mesh.
	groupMax = 1 << 12
	// classGroupMax bounds the groups of a template fill, whose blocks get a
	// header each; templates of the classes past it are filled pair by pair.
	classGroupMax = 64
	// tableMax bounds a block's per-axis tables and its memo, in entries; a
	// block above it is filled pair by pair. A cell fits in a uint16.
	tableMax = 1 << 16
	// pieceMax is the pair count of a task: a block with more pairs is cut
	// into row ranges of about this many, and consecutive smaller blocks
	// are run as one task until they add up to it.
	pieceMax = 1 << 15
)

// tplGroup is a maximal run of consecutive interned panels of one class, or
// the templates of one class (see "Blocks" in the package comment), cut
// every groupMax members.
type tplGroup struct {
	// lo, hi: panels [lo, hi), or the first template of the group and one
	// past its last; n members.
	lo, hi, n int32
	cls       *tplClass // their class; nil: the block fill asks PairInto pair by pair
	// reps[rep[ax]:rep[ax+1]] holds, in ascending order of (lo, hi), one
	// member for each distinct extent the members take along axis ax.
	rep        [4]int32
	dmin, dmax float64 // smallest and largest member diameter
}

// group builds the groups of what was interned, their members' ranks and
// the groups' extent lists: runs of panels, or the classes of a basis set,
// whose templates are interleaved (member).
func (f *Interned) group() {
	n := len(f.tpl)
	f.rank = make([][3]uint16, n)
	f.reps = make([]int32, 0, n)
	if f.set != nil {
		f.groupClasses()
		return
	}
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
	for lo := 0; lo < n; {
		hi := runEnd(lo)
		f.groups = append(f.groups, tplGroup{lo: int32(lo), hi: int32(hi), n: int32(hi - lo), cls: f.tpl[lo].cls})
		f.index(&f.groups[len(f.groups)-1], func(int) bool { return true })
		lo = hi
	}
}

// groupClasses puts each template with a class in the newest group of its
// class, opening one where there is none or it is full, while there are
// fewer than classGroupMax; the rest are in none (member -1).
func (f *Interned) groupClasses() {
	f.member = make([]int32, len(f.tpl))
	f.groups = make([]tplGroup, 0, classGroupMax)
	for i := range f.tpl {
		f.member[i] = -1
		cls := f.tpl[i].cls
		if cls == nil {
			continue
		}
		g := len(f.groups) - 1
		for g >= 0 && f.groups[g].cls != cls {
			g--
		}
		if g < 0 || f.groups[g].n == groupMax {
			if len(f.groups) == classGroupMax {
				continue
			}
			g = len(f.groups)
			f.groups = append(f.groups, tplGroup{lo: int32(i), cls: cls})
		}
		f.member[i] = int32(g)
		f.groups[g].hi, f.groups[g].n = int32(i+1), f.groups[g].n+1
	}
	for g := range f.groups {
		f.index(&f.groups[g], func(i int) bool { return f.member[i] == int32(g) })
	}
}

// index builds g's extent lists, its members' ranks and its diameter range;
// in tells which templates of [g.lo, g.hi) are its members.
func (f *Interned) index(g *tplGroup, in func(int) bool) {
	for ax := range 3 {
		base := len(f.reps)
		g.rep[ax] = int32(base)
		for i := int(g.lo); i < int(g.hi); i++ {
			if !in(i) {
				continue
			}
			if k, ok := f.findExtent(f.reps[base:], ax, i); !ok {
				f.reps = slices.Insert(f.reps, base+k, int32(i))
			}
		}
		for i := int(g.lo); i < int(g.hi); i++ {
			if in(i) {
				k, _ := f.findExtent(f.reps[base:], ax, i)
				f.rank[i][ax] = uint16(k)
			}
		}
	}
	g.rep[3] = int32(len(f.reps))
	g.dmin, g.dmax = math.Inf(1), math.Inf(-1)
	for i := int(g.lo); i < int(g.hi); i++ {
		if in(i) {
			g.dmin, g.dmax = min(g.dmin, f.tpl[i].diam), max(g.dmax, f.tpl[i].diam)
		}
	}
}

// findExtent searches the extent list d, ascending along ax, for template
// i's extent.
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

// FillUpper writes the interned panels' scaled Galerkin matrix into m, both
// triangles from the upper: entries (i, j) and (j, i), i <= j, are
// kernel.Scale(PairInto(i, j), eps) to the bit, panel i the target. The
// exception are the entries whose two panels share a non-negative class in
// class (nil: none do): m is then the matrix of the same panels before they
// moved, and those entries, in both triangles, are kept as m holds them.
// A block whose two groups lie in one class is skipped whole. The blocks
// of the panel groups run as tasks on ex, each with scratch from the class
// table's free list (see "Blocks"). It returns the number of upper entries
// kept and the pair work of the rest. f must hold panels.
func (f *Interned) FillUpper(ex sched.Executor, m *linalg.Dense, class []int32, eps float64) (int64, FillStats) {
	starts := f.tasks()
	var gcls []int32 // per group: the class all its panels share, else -1
	if class != nil {
		gcls = make([]int32, len(f.groups))
		for g, G := range f.groups {
			gcls[g] = class[G.lo]
			for i := G.lo + 1; i < G.hi && gcls[g] >= 0; i++ {
				if class[i] != gcls[g] {
					gcls[g] = -1
				}
			}
		}
	}
	var mu sync.Mutex // guards the two totals
	var reused int64
	var fill FillStats
	ex.Map(len(starts)-1, func(t int) {
		w := f.pairs.takeScratch()
		var c FillStats
		var nr int64
		for pos := starts[t]; pos != starts[t+1]; {
			p, pairs := f.piece(pos)
			if gcls != nil && gcls[p.a] >= 0 && gcls[p.a] == gcls[p.b] {
				nr += pairs
			} else {
				nr += f.fillPiece(w, p, m, class, eps, &c)
			}
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
// the cell part (see rankAxis) for every (A extent, B extent) pair, and the
// memo of scaled values by cell, valid where stamp == epoch.
type blockScratch struct {
	nb     [3]int // B's extent count per axis: the tables' row length
	gap    [3][]float64
	cell   [3][]uint16
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
	n, ok := f.extentPairs(A, B)
	if !ok {
		return blockDirect
	}
	var lo, hi [3]float64 // smallest and largest gap² per axis
	for ax := range 3 {
		ra, rb := f.reps[A.rep[ax]:A.rep[ax+1]], f.reps[B.rep[ax]:B.rep[ax+1]]
		w.nb[ax] = len(rb)
		g := resize(w.gap[ax], n[ax])
		w.gap[ax] = g
		lo[ax] = math.Inf(1)
		for x, ia := range ra {
			a := &f.tpl[ia]
			for y, ib := range rb {
				b := &f.tpl[ib]
				v := gap2(a.lo[ax], a.hi[ax], b.lo[ax], b.hi[ax])
				g[x*len(rb)+y] = v
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
	stride := 1
	for ax := range 3 {
		w.cell[ax] = resize(w.cell[ax], n[ax])
		if stride = w.rankAxis(f, w.cell[ax], A, B, ax, stride); stride < 0 {
			return blockDirect
		}
	}
	w.memo, w.stamp = resize(w.memo, stride), resize(w.stamp, stride)
	if w.epoch++; w.epoch == 0 {
		clear(w.stamp)
		w.epoch = 1
	}
	return mode
}

// rankAxis writes to k, row by row over the (A extent, B extent) pairs
// along ax, stride times the rank of the pair's centre2 among the distinct
// values those pairs take, and returns stride times their number: the
// block's cell stride for the next axis. A cell is the rank triple, folded
// to |centre2| when neither class varies: canon then keys on the
// displacement alone. A pair whose gap along ax alone passes FarFactor
// times the groups' largest mean diameter is far, whatever the other axes
// add to the gate's sum of non-negative squares (rounding is monotone), so
// its value takes no rank and it writes 0. It returns -1, with k partly
// written, when the cells would pass tableMax.
func (w *blockScratch) rankAxis(f *Interned, k []uint16, A, B *tplGroup, ax, stride int) int {
	const far = math.MinInt64 // below every centre2
	ra, rb := f.reps[A.rep[ax]:A.rep[ax+1]], f.reps[B.rep[ax]:B.rep[ax+1]]
	fold := A.cls.vary == noVary && B.cls.vary == noVary
	limit := f.far * (0.5 * (A.dmax + B.dmax))
	v := resize(w.c2, len(ra)*len(rb))
	w.c2 = v
	for x, ia := range ra {
		a := &f.tpl[ia]
		for y, ib := range rb {
			b := &f.tpl[ib]
			c := f.centre2(a, b, ax)
			if fold && c < 0 {
				c = -c
			}
			if math.Sqrt(gap2(a.lo[ax], a.hi[ax], b.lo[ax], b.hi[ax])) > limit {
				c = far
			}
			v[x*len(rb)+y] = c
		}
	}
	s := append(w.sorted[:0], v...)
	slices.Sort(s)
	s = slices.Compact(s)
	w.sorted = s
	if len(s) > 0 && s[0] == far {
		s = s[1:]
	}
	if stride*len(s) > tableMax {
		return -1
	}
	for e, c := range v {
		r, _ := slices.BinarySearch(s, c) // 0 for far
		k[e] = uint16(r * stride)
	}
	return stride * len(s)
}

// classBlocks are a template fill's block tables (see "Blocks"): a header
// per ordered pair of groups, by the groups of the pair's two templates;
// every block's per-axis cell parts, in one slab; and the memo of unit class
// values by cell, which the fill's workers share.
type classBlocks struct {
	ng    int
	hdr   []classBlock
	cells []uint16
	memo  []atomic.Uint64 // a class value's bits; 0: not read yet
}

// classBlock is a block's header: where each axis's table starts in cells,
// its row length, and where the block's cells start in memo (-1: the block
// is filled pair by pair).
type classBlock struct {
	tab, nb [3]int32
	memo    int32
}

// extentPairs returns the size of each of block (A, B)'s per-axis tables,
// and false when one would pass tableMax.
func (f *Interned) extentPairs(A, B *tplGroup) ([3]int, bool) {
	var n [3]int
	for ax := range 3 {
		n[ax] = int(A.rep[ax+1]-A.rep[ax]) * int(B.rep[ax+1]-B.rep[ax])
		if n[ax] > tableMax {
			return n, false
		}
	}
	return n, true
}

// classBlocks builds the block tables of the interned basis set's groups,
// each block's with rankAxis, as three slabs and scratch from the class
// table's free list. A block whose memo would hold more cells than it has
// pairs, or pass tableMax, is filled pair by pair.
func (f *Interned) classBlocks() *classBlocks {
	ng := len(f.groups)
	t := &classBlocks{ng: ng, hdr: make([]classBlock, ng*ng)}
	var total, most int
	for a := range f.groups {
		for b := range f.groups {
			if n, ok := f.extentPairs(&f.groups[a], &f.groups[b]); ok {
				total += n[0] + n[1] + n[2]
				most = max(most, n[0], n[1], n[2])
			}
		}
	}
	t.cells = make([]uint16, total)
	w := f.pairs.takeScratch()
	w.c2, w.sorted = resize(w.c2, most), resize(w.sorted, most) // once, not per block
	var off, cells int
	for a := range f.groups {
		for b := range f.groups {
			A, B, h := &f.groups[a], &f.groups[b], &t.hdr[a*ng+b]
			h.memo = -1
			n, ok := f.extentPairs(A, B)
			if !ok {
				continue
			}
			stride := 1
			for ax := range 3 {
				h.tab[ax], h.nb[ax] = int32(off), B.rep[ax+1]-B.rep[ax]
				if stride >= 0 {
					stride = w.rankAxis(f, t.cells[off:off+n[ax]], A, B, ax, stride)
				}
				off += n[ax]
			}
			if stride >= 0 && stride <= int(A.n)*int(B.n) {
				h.memo, cells = int32(cells), cells+stride
			}
		}
	}
	f.pairs.release(w)
	t.memo = make([]atomic.Uint64, cells)
	return t
}

// fillPiece fills piece p (see FillUpper) with w's tables, each entry and
// its mirror, counting into c, and returns the number of entries kept.
func (f *Interned) fillPiece(w *blockScratch, p blockPiece, m *linalg.Dense, class []int32, eps float64, c *FillStats) (nr int64) {
	B := &f.groups[p.b]
	mode := w.prepare(f, &f.groups[p.a], B)
	for i := int(p.rlo); i < int(p.rhi); i++ {
		row := m.Row(i)
		ci := int32(-1) // no class: no entry of the row is kept
		if class != nil {
			ci = class[i]
		}
		j0 := int(B.lo)
		if p.a == p.b {
			j0 = i
		}
		// Row i's slices of the tables: valid only in the modes that built them.
		a, ra := &f.tpl[i], f.rank[i]
		var g0, g1, g2 []float64
		var k0, k1, k2 []uint16
		if mode != blockDirect {
			g0, g1, g2 = w.gap[0][int(ra[0])*w.nb[0]:], w.gap[1][int(ra[1])*w.nb[1]:], w.gap[2][int(ra[2])*w.nb[2]:]
		}
		if mode == blockNear || mode == blockMixed {
			k0, k1, k2 = w.cell[0][int(ra[0])*w.nb[0]:], w.cell[1][int(ra[1])*w.nb[1]:], w.cell[2][int(ra[2])*w.nb[2]:]
		}
		for j := j0; j < int(B.hi); j++ {
			if ci >= 0 && ci == class[j] {
				nr++
				continue
			}
			var v float64
			b, rb := &f.tpl[j], &f.rank[j]
			switch {
			case mode == blockDirect:
				v = kernel.Scale(f.PairInto(i, j, c), eps)
			case mode == blockFar || mode == blockMixed && f.beyond((g0[rb[0]]+g1[rb[1]])+g2[rb[2]], a, b):
				c.PairsFar++
				v = kernel.Scale(farValue(a, b), eps)
			default:
				cell := int(k0[rb[0]]) + int(k1[rb[1]]) + int(k2[rb[2]])
				if w.stamp[cell] == w.epoch {
					c.PairsNear++
					c.PairMemo++
					v = w.memo[cell]
				} else {
					v = kernel.Scale(f.PairInto(i, j, c), eps)
					w.memo[cell], w.stamp[cell] = v, w.epoch
				}
			}
			row[j], m.Data[j*m.Cols+i] = v, v
		}
	}
	return nr
}
