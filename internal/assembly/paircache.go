package assembly

import (
	"math"
	"sync"
	"sync/atomic"
	"unsafe"

	"parbem/internal/basis"
	"parbem/internal/geom"
)

// PairCache is the table of symmetry-class integrals (see the package
// comment): it maps a canonical pair key — the classes of the two
// templates' images and the lattice displacement between their centres —
// to the unit-amplitude Galerkin integral of the instance rebuilt from
// that key. The value is a pure function of the key: whichever pair of a
// class arrives first, whichever worker, backend or extraction asks, the
// bits are the same, and two workers racing on one class store the same
// number. It differs from evaluating a member pair at its absolute
// coordinates by rounding only (the lattice moves coordinates by at most
// 2^-40 of the structure; the closed forms are invariant under
// isometries up to their own cancellation).
//
// Every fill uses one: its own unless Integrator.Pairs supplies a shared
// table, which is how the batch engine reuses classes across extractions.
// The kernel configuration is part of every class, so differently
// configured integrators can share a table without aliasing.
//
// The table is one generation at a time: a log of {key, value} entries in
// the order the classes arrived, in fixed pages, and an open-addressed
// index of log positions. Nothing exists until the first class is stored,
// so an idle table costs nothing. Lookups take no lock. An entry is
// written once and then published — by the atomic store of its index
// slot, then of the log's length — so whoever learns a position from
// either reads an entry that no longer changes. Stores are rare (one per
// class ever integrated, each behind a quadrature) and serialize on one
// mutex; they grow the index by building the next one and swapping the
// pointer, and a lookup that raced the swap at worst misses, integrates
// the same bits and finds the class present when it comes to store them.
//
// The table is bounded: the store that finds the log full installs a
// fresh generation, holding that one class, in place of the old, which
// costs re-integration, never correctness. Lookups in flight finish on
// the generation they loaded and the collector frees it once the last is
// done.
//
// A refill asks for classes in very nearly the order the first fill
// stored them — that is the order of the log — so every sweep carries a
// cursor (in its FillStats): the generation and the position one past its
// last hit. A lookup compares its key with the entry there, then with the
// entry before the last hit (the mirror image of a run walks the log
// backwards), and only then hashes and probes the index. A cursor keeps
// its generation reachable, so it lives in the counters a worker owns for
// the length of one sweep and nowhere else: FillStats.Add leaves it
// behind, and no aggregate (Integrator, batch.Engine, plan.Stats) is ever
// assigned a worker's FillStats whole.
type PairCache struct {
	limit int // entries a generation holds
	gen   atomic.Pointer[pairGen]

	mu      sync.Mutex // serializes put, and classOf
	classes map[classKey]*tplClass
	lastID  uint32

	// blocks is the free list of the block fill's scratch (see "Blocks"):
	// the fills of a long-lived table take their tables and memos from it
	// and give them back, so a steady stream of assemblies allocates none.
	blocks struct {
		sync.Mutex
		free []*blockScratch
	}
}

const (
	// pairPage is the number of entries in a page of the log, and the
	// smallest bound a table can have.
	pairPage = 256
	// pairIndexMin is the number of slots of a generation's first index.
	pairIndexMin = 1024
	// latticeBits sets the lattice quantum to 2^-latticeBits of the
	// structure's extent (rounded up to a power of two); arch decay
	// lengths are rounded to as many mantissa bits and edge positions to
	// multiples of 2^-latticeBits.
	latticeBits = 40
	// maxClasses bounds the class index of a long-lived shared table,
	// images included.
	maxClasses = 1 << 14
)

// pairKey identifies a symmetry class of template pairs (i, j), i <= j, by
// its canonical member (see Interned.canon).
type pairKey struct {
	a, b uint32   // class ids of the images of templates i and j
	d    [3]int64 // twice j's centre minus i's along X, Y, Z, in lattice units
}

func (k *pairKey) hash() uint64 {
	h := uint64(k.a)<<32 | uint64(k.b)
	h = (h ^ uint64(k.d[0])) * 0x9e3779b97f4a7c15
	h ^= h >> 29
	h = (h ^ uint64(k.d[1])) * 0xbf58476d1ce4e5b9
	h ^= h >> 32
	h = (h ^ uint64(k.d[2])) * 0x94d049bb133111eb
	return h ^ h>>29
}

type pairEntry struct {
	key pairKey
	val float64
}

// pairGen is one generation of the table. Only put, under the table's
// mutex, writes to it.
type pairGen struct {
	// pages is the log. The slice is as long as the bound needs from the
	// start; page p is allocated when entry p*pairPage arrives.
	pages []*[pairPage]pairEntry
	n     atomic.Uint32 // entries published
	// index holds 0 for an empty slot, else 1 + a log position; its length
	// is a power of two at least twice n.
	index atomic.Pointer[[]atomic.Uint32]
}

// pairCursor is where a sweep's last hit was: pos is one past it in gen's
// log.
type pairCursor struct {
	gen *pairGen
	pos uint32
}

// NewPairCache creates a table bounded to maxEntries classes (0 means the
// default of 1<<18, about 13 MB full; at least one page of the log).
func NewPairCache(maxEntries int) *PairCache {
	if maxEntries <= 0 {
		maxEntries = 1 << 18
	}
	return &PairCache{
		limit:   max(maxEntries, pairPage),
		classes: make(map[classKey]*tplClass),
	}
}

func (g *pairGen) entry(p uint32) *pairEntry { return &g.pages[p/pairPage][p%pairPage] }

// find probes the index for k, whose hash is h.
func (g *pairGen) find(k *pairKey, h uint64) (pos uint32, ok bool) {
	index := *g.index.Load()
	mask := uint64(len(index) - 1)
	for s := h & mask; ; s = (s + 1) & mask {
		e := index[s].Load()
		if e == 0 {
			return 0, false
		}
		if g.entry(e-1).key == *k {
			return e - 1, true
		}
	}
}

// link points the first free slot on h's probe path at log position p.
func link(index []atomic.Uint32, h uint64, p uint32) {
	mask := uint64(len(index) - 1)
	s := h & mask
	for index[s].Load() != 0 {
		s = (s + 1) & mask
	}
	index[s].Store(p + 1)
}

// get looks k up for the sweep that owns s: at its cursor, at the entry
// before its last hit, then through the index. A hit moves the cursor.
func (c *PairCache) get(k *pairKey, s *FillStats) (float64, bool) {
	g := c.gen.Load()
	if g == nil {
		return 0, false
	}
	if s.cur.gen != g {
		s.cur = pairCursor{gen: g}
	}
	p := s.cur.pos
	if p < g.n.Load() {
		if e := g.entry(p); e.key == *k {
			s.cur.pos = p + 1
			s.PairSequential++
			return e.val, true
		}
	}
	if p >= 2 {
		if e := g.entry(p - 2); e.key == *k {
			s.cur.pos = p - 1
			s.PairSequential++
			return e.val, true
		}
	}
	p, ok := g.find(k, k.hash())
	if !ok {
		return 0, false
	}
	s.cur.pos = p + 1
	return g.entry(p).val, true
}

// put stores a class value and reports whether the class was new (false
// when another worker integrated the same class first).
func (c *PairCache) put(k *pairKey, v float64) bool {
	h := k.hash()
	c.mu.Lock()
	defer c.mu.Unlock()
	g := c.gen.Load()
	slots := pairIndexMin
	if g != nil {
		if _, ok := g.find(k, h); ok {
			return false
		}
		if int(g.n.Load()) < c.limit {
			g.append(k, h, v)
			return true
		}
		slots = len(*g.index.Load()) // what the bound takes: the next generation will fill up too
	}
	g = &pairGen{pages: make([]*[pairPage]pairEntry, (c.limit+pairPage-1)/pairPage)}
	index := make([]atomic.Uint32, slots)
	g.index.Store(&index)
	g.append(k, h, v)
	c.gen.Store(g)
	return true
}

// append writes the entry at the end of the log, then publishes it. h is
// k's hash.
func (g *pairGen) append(k *pairKey, h uint64, v float64) {
	n := g.n.Load()
	if n%pairPage == 0 {
		g.pages[n/pairPage] = new([pairPage]pairEntry)
	}
	*g.entry(n) = pairEntry{key: *k, val: v}
	if index := *g.index.Load(); 2*(int(n)+1) <= len(index) {
		link(index, h, n)
	} else {
		grown := make([]atomic.Uint32, 2*len(index))
		for p := uint32(0); p <= n; p++ {
			link(grown, g.entry(p).key.hash(), p)
		}
		g.index.Store(&grown)
	}
	g.n.Store(n + 1)
}

// Len returns the current number of stored classes.
func (c *PairCache) Len() int {
	if g := c.gen.Load(); g != nil {
		return int(g.n.Load())
	}
	return 0
}

// Bytes returns the memory held by the live generation's log and index.
func (c *PairCache) Bytes() int64 {
	g := c.gen.Load()
	if g == nil {
		return 0
	}
	pages := (int64(g.n.Load()) + pairPage - 1) / pairPage
	return int64(len(g.pages))*int64(unsafe.Sizeof(g.pages[0])) +
		pages*int64(unsafe.Sizeof(*g.pages[0])) + 4*int64(len(*g.index.Load()))
}

// classKey is everything that decides a template's contribution to a
// class value, bar its position and amplitude, in world terms, so that
// its image under an axis permutation or a reflection is another key.
type classKey struct {
	cfg  uint64    // integrator fingerprint
	qexp int32     // lattice quantum = 2^qexp
	vary uint8     // world axis the shape varies along, noVary for a constant template
	arch bool      // ArchShape (edge and lambda hold its parameters) or constant
	edge int64     // EdgePos in units of 2^-latticeBits
	lam  [2]uint64 // LambdaIn and LambdaOut bits, rounded
	ext  [3]int64  // support extents along X, Y, Z in lattice units, 0 along the normal
}

// noVary is the vary axis of a constant template: a sign bit no reflection
// sets (see Interned.canon).
const noVary = 3

// axisOrders lists, by the outcome of the three comparisons canon makes
// between axis displacements, where each world axis goes when the axes are
// stably sorted by descending displacement: bit 0 set, X's is below Y's;
// bit 1, X's below Z's; bit 2, Y's below Z's. Outcomes 2 and 5 cannot
// occur and stand for the identity.
var axisOrders = [8][3]uint8{
	{0, 1, 2}, {1, 0, 2}, {0, 1, 2}, {2, 0, 1},
	{0, 2, 1}, {0, 1, 2}, {1, 2, 0}, {2, 1, 0},
}

// image returns the key of the template's image under the axis
// permutation to (axis ax goes to to[ax]), reflected along its vary axis
// if mirror: an arch (e, lin, lout) read from the other end is
// (1-e, lout, lin), exactly, because e sits on a fixed grid.
func (k classKey) image(to [3]uint8, mirror bool) classKey {
	im := k
	for ax, t := range to {
		im.ext[t] = k.ext[ax]
	}
	if k.vary != noVary {
		im.vary = to[k.vary]
	}
	if mirror && k.arch {
		im.edge, im.lam = 1<<latticeBits-k.edge, [2]uint64{k.lam[1], k.lam[0]}
	}
	return im
}

// tplClass is an interned template class; id is unique for the table's
// lifetime.
type tplClass struct {
	id     uint32
	q      float64 // lattice quantum
	normal geom.Axis
	dir    basis.VaryDir
	vary   uint8       // as classKey.vary
	shape  basis.Shape // FlatShape or *classShape
	ext    [3]int64    // as classKey.ext
	// img[o][m] is the class of this class's image under axisOrders[o],
	// mirrored along the vary axis if m == 1. Images are interned with
	// their class, so every class of the index has the whole table.
	img [8][2]*tplClass
}

// instance rebuilds the class's unit-amplitude template with its corner d
// lattice units from the origin. All coordinates are exact: q is a power
// of two and the lattice spans 41 bits.
func (c *tplClass) instance(d [3]int64) basis.Template {
	r := geom.Rect{Normal: c.normal, Offset: float64(d[c.normal]) * c.q}
	ua, va := r.UAxis(), r.VAxis()
	u, v := float64(d[ua])*c.q, float64(d[va])*c.q
	r.U = geom.Interval{Lo: u, Hi: u + float64(c.ext[ua])*c.q}
	r.V = geom.Interval{Lo: v, Hi: v + float64(c.ext[va])*c.q}
	return basis.Template{Support: r, Dir: c.dir, Shape: c.shape, Amplitude: 1}
}

// roundBits rounds p to latticeBits mantissa bits and returns the bits.
func roundBits(p float64) uint64 {
	const drop = 52 - latticeBits
	return (math.Float64bits(p) + 1<<(drop-1)) &^ (1<<drop - 1)
}

// classOf interns t's class, and with it the classes of its images, under
// the integrator fingerprint cfg and the lattice quantum 2^qexp. It
// returns nil for a template the table cannot describe: a shape that is
// neither of package basis's two, or a support below the lattice's
// resolution.
func (c *PairCache) classOf(cfg uint64, qexp int, t *basis.Template) *tplClass {
	q := math.Ldexp(1, qexp)
	sup := t.Support
	ua, va := sup.UAxis(), sup.VAxis()
	k := classKey{cfg: cfg, qexp: int32(qexp), vary: noVary}
	if t.Dir != basis.VaryNone {
		k.vary = uint8(ua)
		if t.Dir == basis.VaryV {
			k.vary = uint8(va)
		}
		switch sh := t.Shape.(type) {
		case basis.FlatShape:
		case basis.ArchShape:
			// The edge goes on a grid of [0, 1], not to a number of
			// mantissa bits, so that 1-e is on it too.
			e := math.RoundToEven(sh.EdgePos * (1 << latticeBits))
			if !(math.Abs(e) <= 1<<(latticeBits+1)) {
				return nil
			}
			k.arch, k.edge = true, int64(e)
			k.lam = [2]uint64{roundBits(sh.LambdaIn), roundBits(sh.LambdaOut)}
		default:
			return nil
		}
	}
	k.ext[ua] = int64(math.RoundToEven(sup.U.Len() / q))
	k.ext[va] = int64(math.RoundToEven(sup.V.Len() / q))
	if k.ext[ua] <= 0 || k.ext[va] <= 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if cl := c.classes[k]; cl != nil {
		return cl
	}
	// A new class brings its orbit under the six axis orders and the
	// mirror: at most 12 classes, each other's images.
	if len(c.classes)+12 > maxClasses {
		// Forget the index, not the ids: entries of forgotten classes
		// can never be reached again and go with their generation.
		clear(c.classes)
	}
	var orbit [8][2]classKey
	for o, to := range axisOrders {
		for m := range orbit[o] {
			ik := k.image(to, m == 1)
			orbit[o][m] = ik
			if c.classes[ik] == nil {
				c.lastID++
				c.classes[ik] = newClass(c.lastID, q, &ik)
			}
		}
	}
	for o := range orbit {
		for _, ik := range orbit[o] {
			cl := c.classes[ik]
			for o2, to := range axisOrders {
				for m := range cl.img[o2] {
					cl.img[o2][m] = c.classes[ik.image(to, m == 1)]
				}
			}
		}
	}
	return c.classes[k]
}

// newClass builds the class that key k describes.
func newClass(id uint32, q float64, k *classKey) *tplClass {
	cl := &tplClass{id: id, q: q, vary: k.vary, shape: basis.FlatShape{}, ext: k.ext}
	for ax, e := range k.ext {
		if e == 0 {
			cl.normal = geom.Axis(ax)
		}
	}
	if k.vary != noVary {
		cl.dir = basis.VaryV
		if geom.Axis(k.vary) == (geom.Rect{Normal: cl.normal}).UAxis() {
			cl.dir = basis.VaryU
		}
	}
	if k.arch {
		cl.shape = &classShape{ArchShape: basis.ArchShape{
			EdgePos:   float64(k.edge) / (1 << latticeBits),
			LambdaIn:  math.Float64frombits(k.lam[0]),
			LambdaOut: math.Float64frombits(k.lam[1]),
		}}
	}
	return cl
}

// classShape is a class's arch profile together with its shape-weighted
// Gauss nodes on the unit interval, built once per order: what nodeBuf.fill
// would otherwise re-derive, exponentials included, for every pair.
type classShape struct {
	basis.ArchShape
	nodes [33]atomic.Pointer[unitNodes]
}

type unitNodes struct{ t, w []float64 }

// fill maps the unit-interval nodes of the given order (<= 32) onto iv.
func (cs *classShape) fill(nb *nodeBuf, iv geom.Interval, order int) {
	un := cs.nodes[order].Load()
	if un == nil {
		var unit nodeBuf
		unit.fill(cs.ArchShape, geom.Interval{Lo: 0, Hi: 1}, order)
		un = &unitNodes{
			t: append([]float64(nil), unit.x[:unit.n]...),
			w: append([]float64(nil), unit.w[:unit.n]...),
		}
		cs.nodes[order].Store(un) // a racing builder stores the same numbers
	}
	l := iv.Len()
	for i, t := range un.t {
		nb.x[i] = iv.Lo + t*l
		nb.w[i] = un.w[i] * l
	}
	nb.n = len(un.t)
}
