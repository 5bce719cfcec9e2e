package assembly

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"parbem/internal/basis"
	"parbem/internal/geom"
	"parbem/internal/kernel"
)

// isometry is a signed axis permutation about the origin: axis ax goes to
// to[ax], negated where neg[ax].
type isometry struct {
	to  [3]geom.Axis
	neg [3]bool
}

// isometries returns all 48.
func isometries() []isometry {
	var out []isometry
	for _, to := range [][3]geom.Axis{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		for s := 0; s < 8; s++ {
			out = append(out, isometry{to: to, neg: [3]bool{s&1 != 0, s&2 != 0, s&4 != 0}})
		}
	}
	return out
}

// interval returns the image of the extent e of axis ax.
func (g isometry) interval(ax geom.Axis, e geom.Interval) geom.Interval {
	if g.neg[ax] {
		return geom.Interval{Lo: -e.Hi, Hi: -e.Lo}
	}
	return e
}

// template returns the image of t: an arch whose vary axis is negated is
// read from its other end.
func (g isometry) template(t basis.Template) basis.Template {
	var ext [3]geom.Interval
	for ax := geom.X; ax <= geom.Z; ax++ {
		ext[g.to[ax]] = g.interval(ax, t.Support.Extent(ax))
	}
	r := geom.Rect{Normal: g.to[t.Support.Normal]}
	r.Offset, r.U, r.V = ext[r.Normal].Lo, ext[r.UAxis()], ext[r.VAxis()]
	im := t
	im.Support = r
	if t.Dir == basis.VaryNone {
		return im
	}
	vary := t.Support.UAxis()
	if t.Dir == basis.VaryV {
		vary = t.Support.VAxis()
	}
	im.Dir = basis.VaryV
	if g.to[vary] == r.UAxis() {
		im.Dir = basis.VaryU
	}
	if sh, ok := t.Shape.(basis.ArchShape); ok && g.neg[vary] {
		im.Shape = basis.ArchShape{EdgePos: 1 - sh.EdgePos, LambdaIn: sh.LambdaOut, LambdaOut: sh.LambdaIn}
	}
	return im
}

// structure returns the image of st.
func (g isometry) structure(st *geom.Structure) *geom.Structure {
	im := &geom.Structure{Name: st.Name}
	for _, c := range st.Conductors {
		ic := &geom.Conductor{Name: c.Name}
		for _, b := range c.Boxes {
			var lo, hi geom.Vec3
			for ax := geom.X; ax <= geom.Z; ax++ {
				e := g.interval(ax, b.Extent(ax))
				lo, hi = lo.WithComponent(g.to[ax], e.Lo), hi.WithComponent(g.to[ax], e.Hi)
			}
			ic.Boxes = append(ic.Boxes, geom.Box{Min: lo, Max: hi})
		}
		im.Conductors = append(im.Conductors, ic)
	}
	return im
}

// dispatchOf names the branch and quadrature order templatePairNear takes
// for a near pair, from the same quantities it reads.
func dispatchOf(in *Integrator, ti, tj *basis.Template) string {
	d := ti.Support.Dist(tj.Support)
	diam := 0.5 * (ti.Support.Diameter() + tj.Support.Diameter())
	par := ti.Support.ParallelTo(tj.Support)
	switch {
	case ti.IsFlat() && tj.IsFlat():
		switch {
		case d > kernel.MidFactor*diam:
			return "rect mid"
		case par:
			return "rect parallel"
		case d < 0.1*diam:
			return "rect perpendicular x4"
		case d < diam:
			return "rect perpendicular x2"
		}
		return "rect perpendicular"
	case d > kernel.MidFactor*diam:
		return "mid"
	case !par:
		return fmt.Sprintf("generic q=%d", in.order(d, diam))
	case ti.IsFlat() || tj.IsFlat():
		return fmt.Sprintf("strip q=%d", in.order(d, diam))
	case ti.Dir == tj.Dir:
		return fmt.Sprintf("same-axis q=%d", in.order(d, diam))
	}
	return fmt.Sprintf("cross-axis q=%d", in.order(d, diam))
}

// stabilizer returns the number of isometries that keep a sorted,
// non-negative displacement d: reflections of its zero entries and
// permutations of its equal ones.
func stabilizer(d [3]int64) int {
	n := 1
	for _, c := range d {
		if c == 0 {
			n *= 2
		}
	}
	switch {
	case d[0] == d[1] && d[1] == d[2]:
		n *= 6
	case d[0] == d[1] || d[1] == d[2]:
		n *= 2
	}
	return n
}

// symmetryCases are near pairs of flat and arch templates, parallel and
// perpendicular, from separated to coincident, with coordinates on
// multiples of 2^-6 in generic position: no centre displacement is zero or
// equals another unless the case says so.
func symmetryCases() []struct {
	name string
	a, b basis.Template
} {
	arch := basis.ArchShape{EdgePos: 0.375, LambdaIn: 0.25, LambdaOut: 0.5}
	arch2 := basis.ArchShape{EdgePos: 0.625, LambdaIn: 0.125, LambdaOut: 0.75}
	flat := basis.FlatShape{}
	const none, vu, vv = basis.VaryNone, basis.VaryU, basis.VaryV
	return []struct {
		name string
		a, b basis.Template
	}{
		{"flat/flat parallel separated", tpl(geom.Z, 0, 0, 1, 0, 1.5, none, flat, 0.75), tpl(geom.Z, 0.5, 0.25, 2.25, 2, 2.75, none, flat, -1.5)},
		{"flat/flat parallel far apart", tpl(geom.Z, 0, 0, 1, 0, 0.5, none, flat, 1), tpl(geom.Z, 0.75, 4.5, 5.75, 2, 2.75, none, flat, 1)},
		{"flat/flat parallel mid-range", tpl(geom.Z, 0, 0, 1, 0, 0.5, none, flat, 1), tpl(geom.Z, 0.75, 6, 7.25, 2, 2.75, none, flat, 1)},
		{"flat/flat coplanar touching", tpl(geom.Y, 1, 0, 1, 0, 1.5, none, flat, 1), tpl(geom.Y, 1, 1, 1.75, 0.25, 2.5, none, flat, 2)},
		{"flat/flat coplanar overlapping", tpl(geom.X, 0, 0, 1, 0, 1.5, none, flat, 1), tpl(geom.X, 0, 0.5, 1.75, 0.75, 3, none, flat, 2)},
		{"flat/flat shadow overlapping", tpl(geom.Z, 0, 0, 1, 0, 1.5, none, flat, 1), tpl(geom.Z, 0.25, 0.5, 2, 0.25, 1, none, flat, 2)},
		{"flat/flat coincident", tpl(geom.Z, 0, 0, 1, 0, 1.5, none, flat, 1), tpl(geom.Z, 0, 0, 1, 0, 1.5, none, flat, 2)},
		{"flat/flat perpendicular separated", tpl(geom.Z, 0, 0, 1, 0, 1.25, none, flat, 1), tpl(geom.X, 1.5, 0.25, 1.5, 0.5, 1.25, none, flat, 0.5)},
		{"flat/flat perpendicular close", tpl(geom.Z, 0, 0, 1, 0, 1.25, none, flat, 1), tpl(geom.X, 1.125, 0.25, 1.5, 0.0625, 1.25, none, flat, 0.5)},
		{"flat/flat perpendicular touching", tpl(geom.Z, 0, 0, 1, 0, 1.25, none, flat, 1), tpl(geom.Y, 1.25, 0.25, 1.5, 0, 0.5, none, flat, 0.5)},
		{"arch/flat parallel separated", tpl(geom.Z, 0, 0, 1, 0, 1.25, vu, arch, 2), tpl(geom.Z, 0.25, 0.5, 2.25, -0.5, 1, none, flat, 0.5)},
		{"flat/arch parallel separated", tpl(geom.Y, 0.25, 0.5, 2.25, -0.5, 1, none, flat, 0.5), tpl(geom.Y, 0, 0, 1, 0, 1.25, vv, arch, 2)},
		{"arch/flat coplanar touching", tpl(geom.Z, 0, 0, 1, 0, 1.25, vu, arch, 2), tpl(geom.Z, 0, 1, 2.5, 0.25, 1.75, none, flat, 0.5)},
		{"arch/flat coincident", tpl(geom.Z, 0, 0, 1, 0, 1.25, vv, arch, 2), tpl(geom.Z, 0, 0, 1, 0, 1.25, none, flat, 0.5)},
		{"arch/arch same axis separated", tpl(geom.Z, 0, 0, 1, 0, 1.25, vu, arch, -0.5), tpl(geom.Z, 0.25, 0.5, 2, 0.25, 1, vu, arch2, 3)},
		{"arch/arch same axis coplanar overlapping", tpl(geom.Z, 0, 0, 1, 0, 1.25, vv, arch, -0.5), tpl(geom.Z, 0, 0.5, 2, 0.25, 1, vv, arch2, 3)},
		{"arch/arch same axis coincident", tpl(geom.X, 0, 0, 1, 0, 1.25, vu, arch, 1), tpl(geom.X, 0, 0, 1, 0, 1.25, vu, arch2, 3)},
		{"arch/arch cross axis separated", tpl(geom.X, 0, 0, 1, 0, 1.25, vu, arch, 1.5), tpl(geom.X, 0.25, 0.25, 1.5, -0.25, 0.5, vv, arch2, 0.25)},
		{"arch/arch cross axis coincident", tpl(geom.Z, 0, 0, 1, 0, 1.25, vu, arch, 1.5), tpl(geom.Z, 0, 0, 1, 0, 1.25, vv, arch2, 0.25)},
		{"arch/arch mid-range", tpl(geom.Z, 0, 0, 1, 0, 0.75, vu, arch, 1.25), tpl(geom.Z, 0.5, 9, 10.25, 2, 3.5, vv, arch2, 0.5)},
		{"arch/arch perpendicular separated", tpl(geom.Z, 0, 0, 1, 0, 1.25, vv, arch, 1), tpl(geom.X, 1.25, 0, 1.5, 0.25, 1, vu, arch2, -2)},
		{"arch/flat perpendicular touching", tpl(geom.Z, 0, 0, 1, 0, 1.25, vu, arch, 1), tpl(geom.X, 1, 0.25, 2.5, 0, 0.75, none, flat, -2)},
		{"flat/arch perpendicular touching", tpl(geom.Y, 0, 0, 1, 0, 1.25, none, flat, 1), tpl(geom.Z, 1.25, 0.25, 2, 0, 0.75, vv, arch2, -2)},
	}
}

// TestSymmetryImagesShareOneClass takes every case through all 48
// isometries, at a seeded lattice translation each. Every image must take
// the dispatch branch and quadrature order of the original, integrate, at
// its own coordinates and through the table, to within 1e-8 of the
// original (the closed forms are invariant only up to the cancellation in
// their corner sums), and map to one canonical key — to no more keys than
// the displacement has symmetries of its own where it has a zero or two
// equal components.
func TestSymmetryImagesShareOneClass(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	lattice := func() float64 { return float64(rng.Intn(1<<20)-1<<19) / (1 << 16) } // in [-8, 8)
	ties, worst := 0, 0.0
	for _, c := range symmetryCases() {
		in := NewIntegrator()
		in.Pairs = NewPairCache(0)
		want, branch := in.TemplatePair(&c.a, &c.b), dispatchOf(in, &c.a, &c.b)
		keys := map[pairKey]bool{}
		var canon [3]int64
		for _, g := range isometries() {
			by := [3]float64{lattice(), lattice(), lattice()}
			set := pairSet(translate(g.template(c.a), by), translate(g.template(c.b), by))
			ta, tb := &set.Templates[0], &set.Templates[1]
			if got := dispatchOf(in, ta, tb); got != branch {
				t.Fatalf("%s under %v: dispatch %q, original %q", c.name, g, got, branch)
			}
			rel := math.Abs(in.TemplatePair(ta, tb)-want) / math.Abs(want)
			if worst = max(worst, rel); rel > 1e-8 {
				t.Errorf("%s under %v: image integrates to %.3g of the original", c.name, g, rel)
			}
			f := in.Intern(set)
			if rel := math.Abs(f.Pair(0, 1)-want) / math.Abs(want); rel > 1e-8 {
				t.Errorf("%s under %v: class value %.3g from the original", c.name, g, rel)
			}
			var k pairKey
			f.canon(&f.tpl[0], &f.tpl[1], &k)
			keys[k], canon = true, k.d
			if k.d[0] < k.d[1] || k.d[1] < k.d[2] || k.d[2] < 0 {
				t.Fatalf("%s under %v: canonical displacement %v is not sorted", c.name, g, k.d)
			}
		}
		stab := stabilizer(canon)
		if stab > 1 {
			ties++
		}
		t.Logf("%s: %s, displacement %v, %d keys", c.name, branch, canon, len(keys))
		if len(keys) > stab {
			t.Errorf("%s: 48 images map to %d keys, displacement %v allows %d", c.name, len(keys), canon, stab)
		}
		if st := in.FillStats(); st.ClassesIntegrated != int64(len(keys)) || st.PairsNear != 48 {
			t.Errorf("%s: %d classes integrated for %d keys over %d near pairs", c.name, st.ClassesIntegrated, len(keys), st.PairsNear)
		}
	}
	t.Logf("worst image against its original: %.3g", worst)
	if n := len(symmetryCases()); ties < 5 || n-ties < 12 {
		t.Errorf("%d of %d cases have a tie: both kinds must be covered", ties, n)
	}
}

// TestSymmetryTiesIgnoreTableHistory fills a bus, then its image under a
// quarter turn with a reflection, through one shared table. The image's
// pairs meet the first fill's entries through other isometries, ties
// included, and with class ids in another order than a table of its own
// would have given them; its matrix must still be, bit for bit, the one a
// fresh table gives.
func TestSymmetryTiesIgnoreTableHistory(t *testing.T) {
	st := geom.DefaultBus(3, 3).Build()
	turned := isometry{to: [3]geom.Axis{geom.Y, geom.X, geom.Z}, neg: [3]bool{true, false, true}}.structure(st)
	setA := basis.Build(st, basis.BuilderOptions{})
	setB := basis.Build(turned, basis.BuilderOptions{})

	want := FillSerial(setB, NewIntegrator())
	in := NewIntegrator()
	in.Pairs = NewPairCache(0)
	FillSerial(setA, in)
	first := in.FillStats().ClassesIntegrated
	got := FillSerial(setB, in)
	for i, v := range want.Data {
		if got.Data[i] != v {
			t.Fatalf("P[%d] = %b after another structure's fill, %b from a fresh table", i, got.Data[i], v)
		}
	}
	if added := in.FillStats().ClassesIntegrated - first; added > first/20 {
		t.Errorf("the turned bus integrated %d classes on top of the bus's %d: they share no table", added, first)
	}
}

// TestArchMirrorIsAClassOfTheSet: the builder's left and right arches are
// reflections of each other, with edge positions ext/ln and li/ln that sum
// to 1 only up to rounding. On the class grid the reflection is exact, so
// the mirror of every arch class must be a class some template of the set
// already has, and its mirror the class itself.
func TestArchMirrorIsAClassOfTheSet(t *testing.T) {
	for name, st := range map[string]*geom.Structure{
		"crossing": geom.DefaultCrossingPair().Build(),
		"bus4x4":   geom.DefaultBus(4, 4).Build(),
	} {
		set := basis.Build(st, basis.BuilderOptions{})
		f := NewIntegrator().Intern(set)
		used := map[*tplClass]bool{}
		for i := range f.tpl {
			used[f.tpl[i].cls] = true
		}
		arches := 0
		for cl := range used {
			if _, ok := cl.shape.(*classShape); !ok {
				continue
			}
			arches++
			m := cl.img[0][1]
			if m.img[0][1] != cl {
				t.Errorf("%s: the mirror of the mirror of class %d is class %d", name, cl.id, m.img[0][1].id)
			}
			if !used[m] {
				t.Errorf("%s: no template has the mirror of arch class %d (%+v)", name, cl.id, cl.shape.(*classShape).ArchShape)
			}
		}
		if arches == 0 {
			t.Errorf("%s: no arch classes", name)
		}
		t.Logf("%s: %d classes used by templates (%d arch), %d interned with images", name, len(used), arches, len(f.pairs.classes))
	}
}

// TestGenericPairMatchesPerPointSource pins genericPair, which resolves the
// source's axes and quadrature nodes once per pair, to the form that
// rebuilt them at every target point, bitwise: the same operations in the
// same order, so kernel.ArithVersion does not move with it.
func TestGenericPairMatchesPerPointSource(t *testing.T) {
	arch := basis.ArchShape{EdgePos: 0.375, LambdaIn: 0.25, LambdaOut: 0.5}
	in := NewIntegrator()
	collocation := func(s geom.Rect, p geom.Vec3) float64 {
		if s.DistToPoint(p) > kernel.FarFactor*s.Diameter() {
			return s.Area() / s.Center().Dist(p)
		}
		return kernel.RectPotential(s.U.Lo, s.U.Hi, s.V.Lo, s.V.Hi,
			p.Component(s.UAxis()), p.Component(s.VAxis()), p.Component(s.Normal)-s.Offset)
	}
	potentialAt := func(tj *basis.Template, p geom.Vec3) float64 {
		sup := tj.Support
		if tj.IsFlat() {
			return tj.Amplitude * collocation(sup, p)
		}
		vary, flat := sup.U, sup.V
		pVary, pFlat := p.Component(sup.UAxis()), p.Component(sup.VAxis())
		if tj.Dir != basis.VaryU {
			vary, flat, pVary, pFlat = flat, vary, pFlat, pVary
		}
		pn := p.Component(sup.Normal) - sup.Offset
		var nb nodeBuf
		nb.fill(tj.Shape, vary, 2*in.Cfg.QuadOrder)
		var sum float64
		for i := 0; i < nb.n; i++ {
			du := pVary - nb.x[i]
			sum += nb.w[i] * kernel.SegPotential(flat.Lo, flat.Hi, pFlat, du*du+pn*pn)
		}
		return tj.Amplitude * sum
	}
	perPoint := func(ti, tj *basis.Template, q int) float64 {
		sup := ti.Support
		var nu, nv nodeBuf
		nu.fillFlat(sup.U, q)
		nv.fillFlat(sup.V, q)
		switch ti.Dir {
		case basis.VaryU:
			nu.fill(ti.Shape, sup.U, q)
		case basis.VaryV:
			nv.fill(ti.Shape, sup.V, q)
		}
		var sum float64
		for a := 0; a < nu.n; a++ {
			if nu.w[a] == 0 {
				continue
			}
			for b := 0; b < nv.n; b++ {
				sum += nu.w[a] * nv.w[b] * potentialAt(tj, sup.Point(nu.x[a], nv.x[b]))
			}
		}
		return ti.Amplitude * sum
	}

	rng := rand.New(rand.NewSource(5))
	random := func() basis.Template {
		lo := func() float64 { return 3 * (rng.Float64() - 0.5) }
		u, v := lo(), lo()
		t := tpl(geom.Axis(rng.Intn(3)), lo(), u, u+0.2+rng.Float64(), v, v+0.2+rng.Float64(),
			basis.VaryDir(rng.Intn(3)), arch, 0.5+rng.Float64())
		if t.Dir == basis.VaryNone {
			t.Shape = basis.FlatShape{}
		}
		return t
	}
	for trial := 0; trial < 400; trial++ {
		ti, tj := random(), random()
		for _, q := range []int{4, 8, 16} {
			if got, want := in.genericPair(&ti, &tj, q), perPoint(&ti, &tj, q); got != want {
				t.Fatalf("genericPair = %.17g, per-point form = %.17g at q = %d\n  ti = %+v\n  tj = %+v", got, want, q, ti, tj)
			}
		}
	}
}

// BenchmarkCanonicalKey times what a near pair costs before its table
// lookup: the centre displacement, its reflections and axis order, and the
// two image classes.
func BenchmarkCanonicalKey(b *testing.B) {
	set := basis.Build(geom.DefaultBus(4, 4).Build(), basis.BuilderOptions{})
	f := NewIntegrator().Intern(set)
	m := set.M()
	var k pairKey
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i := 0; i < m; i++ {
			for j := i; j < m; j++ {
				f.canon(&f.tpl[i], &f.tpl[j], &k)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(NumPairs(m)), "ns/pair")
}
