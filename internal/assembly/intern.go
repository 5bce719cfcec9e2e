package assembly

import (
	"math"

	"parbem/internal/basis"
	"parbem/internal/geom"
	"parbem/internal/kernel"
)

// Interned is a basis set, or a panelization (InternPanels), prepared for
// one fill: per template, its class in the fill's PairCache and the
// constants the pair loop would otherwise recompute for every pair. It is
// read-only after interning and safe for concurrent use.
type Interned struct {
	in    *Integrator
	set   *basis.Set // the templates; nil when panels were interned
	pairs *PairCache // nil when the set has no extent to put a lattice on
	tpl   []tplInfo
	invQ  float64 // 1 / lattice quantum
	far   float64 // far-field gate factor; +Inf when approximations are off
	// panels are what InternPanels interned, each a flat template of
	// amplitude 1 (last: what every pair reads stays on one cache line).
	panels []geom.Panel
	// groups, rank and reps index the templates for the block fill (see
	// "Blocks"); member is each template's group when they are a basis
	// set's, -1 for none.
	groups []tplGroup
	rank   [][3]uint16 // per template: its extent's rank in its group, per axis
	reps   []int32     // per group and axis: one member per distinct extent
	member []int32
}

type tplInfo struct {
	cls      *tplClass  // nil: evaluate at absolute coordinates
	lo, hi   [3]float64 // support extent along X, Y, Z
	amp      float64
	moment   float64
	diam     float64
	centroid geom.Vec3
}

// Intern prepares a fill of set in two passes over its templates: their
// constants and bounding box, which fixes the lattice, then their classes.
func (in *Integrator) Intern(set *basis.Set) *Interned {
	return in.intern(&Interned{set: set}, set.M(), in.Cfg.Fingerprint(kernel.ArithVersion))
}

// InternPanels interns a panelization under cfg, its classes filed in pairs
// (nil = a table of its own): panel i is template i, flat, of amplitude 1,
// so PairInto(i, j, c) is the unit Galerkin integral of the ordered pair
// (target i, source j) — see "Panels" in the package comment. It is the
// one source of exact panel-pair values: dense assembly, the multipole
// near field and the pfft precorrection all read it.
func InternPanels(cfg *kernel.Config, pairs *PairCache, panels []geom.Panel) *Interned {
	in := &Integrator{Cfg: cfg, Pairs: pairs}
	return in.intern(&Interned{panels: panels}, len(panels), in.Cfg.Fingerprint(kernel.ArithVersion))
}

// template returns template i of what f interned.
func (f *Interned) template(i int) basis.Template {
	if f.set != nil {
		return f.set.Templates[i]
	}
	return basis.Template{Support: f.panels[i].Rect, Shape: basis.FlatShape{}, Amplitude: 1}
}

// intern fills in f, which holds the m templates to intern, with their
// classes filed under the fingerprint fp.
func (in *Integrator) intern(f *Interned, m int, fp uint64) *Interned {
	f.in, f.tpl, f.far = in, make([]tplInfo, m), kernel.FarFactor
	if in.Cfg.DisableApprox {
		f.far = math.Inf(1)
	}
	inf := math.Inf(1)
	lo, hi := [3]float64{inf, inf, inf}, [3]float64{-inf, -inf, -inf}
	for i := range f.tpl {
		t, ti := f.template(i), &f.tpl[i]
		for ax := geom.X; ax <= geom.Z; ax++ {
			e := t.Support.Extent(ax)
			ti.lo[ax], ti.hi[ax] = e.Lo, e.Hi
			lo[ax], hi[ax] = min(lo[ax], e.Lo), max(hi[ax], e.Hi)
		}
		ti.amp, ti.moment, ti.diam, ti.centroid = t.Amplitude, t.Moment(), t.Support.Diameter(), t.Centroid()
	}
	extent := max(hi[0]-lo[0], hi[1]-lo[1], hi[2]-lo[2])
	if extent > 0 && !math.IsInf(extent, 1) {
		_, e := math.Frexp(extent)
		qexp := e - latticeBits
		f.invQ = math.Ldexp(1, -qexp)
		if f.pairs = in.Pairs; f.pairs == nil {
			f.pairs = NewPairCache(0)
		}
		for i := range f.tpl {
			t := f.template(i)
			f.tpl[i].cls = f.pairs.classOf(fp, qexp, &t)
		}
	}
	f.group()
	return f
}

// Pair returns the P~ entry of templates i and j.
func (f *Interned) Pair(i, j int) float64 {
	var c FillStats
	v := f.PairInto(i, j, &c)
	f.in.AddFillStats(c)
	return v
}

// PairInto is Pair with the work counted into c, which the caller owns (one
// per worker of a sweep), not into the integrator under its lock, and which
// remembers where in the table the sweep's last pair was found. The pair
// is ordered: i is the target of whatever the dispatch collocates.
func (f *Interned) PairInto(i, j int, c *FillStats) float64 {
	a, b := &f.tpl[i], &f.tpl[j]
	d2 := dist2(a, b)
	if f.beyond(d2, a, b) {
		// Far field, decided and evaluated at absolute coordinates.
		c.PairsFar++
		return farValue(a, b)
	}
	c.PairsNear++
	if a.cls == nil || b.cls == nil {
		return f.pairAbsolute(i, j, d2)
	}
	return a.amp * b.amp * f.classValue(a, b, c)
}

// classValue returns the unit value of the class of the near pair (a, b),
// both with a class: it builds the key, looks it up and, on a miss,
// integrates the class and stores it.
func (f *Interned) classValue(a, b *tplInfo, c *FillStats) float64 {
	var k pairKey
	ca, cb := f.canon(a, b, &k)
	v, ok := f.pairs.get(&k, c)
	if !ok {
		// Integrate the instance the key describes, not the pair that
		// happened to ask, and decide mid/near dispatch on it.
		var at [3]int64
		for ax, c := range k.d {
			at[ax] = (c + ca.ext[ax] - cb.ext[ax]) / 2
		}
		ta, tb := ca.instance([3]int64{}), cb.instance(at)
		v = f.in.templatePairNear(&ta, &tb, ta.Support.Dist(tb.Support),
			0.5*(ta.Support.Diameter()+tb.Support.Diameter()))
		if f.pairs.put(&k, v) {
			c.ClassesIntegrated++
		}
	}
	return v
}

// dist2 is the square of the distance between the supports of a and b,
// summed in axis order.
func dist2(a, b *tplInfo) float64 {
	var d2 float64
	for ax := range a.lo {
		d2 += gap2(a.lo[ax], a.hi[ax], b.lo[ax], b.hi[ax])
	}
	return d2
}

// pairAbsolute evaluates a near pair the key cannot describe at its own
// coordinates. It is kept out of line: its two templates in PairInto's
// frame are 160 bytes more to clear on every call, 3% of a template fill,
// for a branch no builder's output takes.
//
//go:noinline
func (f *Interned) pairAbsolute(i, j int, d2 float64) float64 {
	ti, tj := f.template(i), f.template(j)
	return f.in.templatePairNear(&ti, &tj, math.Sqrt(d2), 0.5*(f.tpl[i].diam+f.tpl[j].diam))
}

// beyond is the far gate: whether a pair whose supports lie sqrt(d2) apart
// is past FarFactor mean diameters. (The squares summed into d2 are rounded
// on their own — float64(g * g) — so that no architecture fuses them into
// the sum and the block fill's per-axis tables add up to the same bits.)
func (f *Interned) beyond(d2 float64, a, b *tplInfo) bool {
	return math.Sqrt(d2) > f.far*(0.5*(a.diam+b.diam))
}

// farValue is the far-field form: point charges carrying the zeroth
// moments at the charge centroids.
func farValue(a, b *tplInfo) float64 {
	return a.moment * b.moment / a.centroid.Dist(b.centroid)
}

// canon writes the key of the near pair (a, b) to k — its class under
// translations, reflections and axis permutations — and returns the
// classes of the two templates of the instance the key describes. Each
// axis along which b's centre lies below a's is reflected, then the axes
// are put in descending order of centre displacement; an axis with no
// displacement keeps its direction and axes with equal displacements keep
// their order, so the symmetry applied depends on the pair's geometry
// alone.
func (f *Interned) canon(a, b *tplInfo, k *pairKey) (ca, cb *tplClass) {
	// Twice the centre displacement in lattice units, made non-negative,
	// then the three comparisons that order it: all in arithmetic, because
	// as branches they are coin tosses that cost more than the rest.
	c0, c1, c2 := f.centre2(a, b, 0), f.centre2(a, b, 1), f.centre2(a, b, 2)
	s0, s1, s2 := c0>>63, c1>>63, c2>>63 // all ones where b's centre lies below a's
	c0, c1, c2 = (c0^s0)-s0, (c1^s1)-s1, (c2^s2)-s2
	neg := uint64(s0&1 | s1&2 | s2&4)
	o := uint64(c0-c1)>>63 | uint64(c0-c2)>>63<<1 | uint64(c1-c2)>>63<<2
	hi, lo := max(c0, c1, c2), min(c0, c1, c2)
	k.d = [3]int64{hi, c0 + c1 + c2 - hi - lo, lo}
	ca, cb = a.cls.img[o][neg>>a.cls.vary&1], b.cls.img[o][neg>>b.cls.vary&1]
	k.a, k.b = ca.id, cb.id
	return ca, cb
}

// centre2 returns twice the displacement of b's centre from a's along ax,
// in lattice units.
func (f *Interned) centre2(a, b *tplInfo, ax int) int64 {
	return 2*int64(math.RoundToEven((b.lo[ax]-a.lo[ax])*f.invQ)) + b.cls.ext[ax] - a.cls.ext[ax]
}
