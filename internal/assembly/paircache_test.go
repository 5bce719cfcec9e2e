package assembly

import (
	"math"
	"math/rand"
	"testing"

	"parbem/internal/basis"
	"parbem/internal/geom"
	"parbem/internal/kernel"
)

func busSet() *basis.Set {
	st := geom.DefaultBus(3, 3).Build()
	return basis.Build(st, basis.DefaultBuilderOptions())
}

// pairSet wraps two templates as a two-function basis set.
func pairSet(a, b basis.Template) *basis.Set {
	return &basis.Set{
		NumConductors: 1,
		Templates:     []basis.Template{a, b},
		Owner:         []int{0, 1},
		Functions:     []basis.Function{{TplLo: 0, TplHi: 1}, {TplLo: 1, TplHi: 2}},
	}
}

// tpl builds a template on the plane normal to n at offset off.
func tpl(n geom.Axis, off, u0, u1, v0, v1 float64, dir basis.VaryDir, sh basis.Shape, amp float64) basis.Template {
	return basis.Template{
		Support: geom.Rect{Normal: n, Offset: off,
			U: geom.Interval{Lo: u0, Hi: u1}, V: geom.Interval{Lo: v0, Hi: v1}},
		Dir: dir, Shape: sh, Amplitude: amp,
	}
}

// translate moves a template by the world-space vector t.
func translate(t basis.Template, by [3]float64) basis.Template {
	r := &t.Support
	r.Offset += by[r.Normal]
	r.U.Lo, r.U.Hi = r.U.Lo+by[r.UAxis()], r.U.Hi+by[r.UAxis()]
	r.V.Lo, r.V.Hi = r.V.Lo+by[r.VAxis()], r.V.Hi+by[r.VAxis()]
	return t
}

// TestClassValueMatchesDirect puts one pair of every dispatch class at
// random lattice translations (coordinates are multiples of 2^-16, the
// lattice quantum of these few-unit structures is 2^-38, so interning
// moves nothing) and requires the class value times the amplitudes to
// equal the direct evaluation at the pair's absolute coordinates up to
// rounding: the first placement integrates the canonical instance, every
// other one is a table hit.
func TestClassValueMatchesDirect(t *testing.T) {
	arch := basis.ArchShape{EdgePos: 0.375, LambdaIn: 0.25, LambdaOut: 0.5}
	arch2 := basis.ArchShape{EdgePos: 0.625, LambdaIn: 0.125, LambdaOut: 0.75}
	flat := basis.FlatShape{}
	cases := []struct {
		name string
		a, b basis.Template
		same bool // a pair of the template with itself
	}{
		{"flat/flat", tpl(geom.Z, 0, 0, 1, 0, 1, basis.VaryNone, flat, 0.75),
			tpl(geom.Z, 0.5, 0.25, 2, 0.5, 1.5, basis.VaryNone, flat, -1.5), false},
		{"mid-field", tpl(geom.Z, 0, 0, 1, 0, 1, basis.VaryU, arch, 1.25),
			tpl(geom.Z, 0.5, 9, 10, 0, 1.5, basis.VaryV, arch2, 0.5), false},
		{"strip", tpl(geom.Z, 0, 0, 1, 0, 1, basis.VaryU, arch, 2),
			tpl(geom.Z, 0.25, 0.5, 2, -0.5, 0.75, basis.VaryNone, flat, 0.5), false},
		{"strip reversed", tpl(geom.Y, 0.25, 0.5, 2, -0.5, 0.75, basis.VaryNone, flat, 0.5),
			tpl(geom.Y, 0, 0, 1, 0, 1, basis.VaryV, arch, 2), false},
		{"same-axis", tpl(geom.Z, 0, 0, 1, 0, 1, basis.VaryU, arch, -0.5),
			tpl(geom.Z, 0.25, 0.5, 1.75, 0.25, 1, basis.VaryU, arch2, 3), false},
		{"cross-axis", tpl(geom.X, 0, 0, 1, 0, 1, basis.VaryU, arch, 1.5),
			tpl(geom.X, 0.25, 0.25, 1.25, -0.25, 0.5, basis.VaryV, arch2, 0.25), false},
		{"perpendicular", tpl(geom.Z, 0, 0, 1, 0, 1, basis.VaryV, arch, 1),
			tpl(geom.X, 1.25, 0, 1, 0.25, 1, basis.VaryU, arch2, -2), false},
		{"perpendicular flat", tpl(geom.Z, 0, 0, 1, 0, 1, basis.VaryNone, flat, 1),
			tpl(geom.Y, 1, 0, 1, 0, 0.75, basis.VaryNone, flat, 0.5), false},
		{"self", tpl(geom.Z, 0, 0, 1, 0, 0.5, basis.VaryU, arch, 1.75), basis.Template{}, true},
	}
	rng := rand.New(rand.NewSource(12))
	lattice := func() float64 { return float64(rng.Intn(1<<20)-1<<19) / (1 << 16) } // in [-8, 8)
	for _, c := range cases {
		in := NewIntegrator()
		in.Pairs = NewPairCache(0)
		const places = 8
		for p := 0; p < places; p++ {
			by := [3]float64{lattice(), lattice(), lattice()}
			a, b := translate(c.a, by), translate(c.b, by)
			i, j := 0, 1
			if c.same {
				b, j = tpl(geom.Z, 40, 40, 41, 40, 41, basis.VaryNone, flat, 1), 0 // a far bystander
				b = translate(b, by)
			}
			set := pairSet(a, b)
			ti, tj := &set.Templates[i], &set.Templates[j]
			d, diam := ti.Support.Dist(tj.Support), 0.5*(ti.Support.Diameter()+tj.Support.Diameter())
			if mid := d > in.Cfg.MidFactor*diam; mid != (c.name == "mid-field") {
				t.Fatalf("%s: d = %g, diam = %g: wrong side of the mid-field gate", c.name, d, diam)
			}
			want := in.TemplatePair(ti, tj)
			got := in.Intern(set).Pair(i, j)
			if rel := math.Abs(got-want) / math.Abs(want); rel > 1e-12 {
				t.Errorf("%s at %v: class value %g, direct %g (rel %.2g)", c.name, by, got, want, rel)
			}
		}
		st := in.FillStats()
		if st.PairsNear != places || st.PairsFar != 0 {
			t.Errorf("%s: %d near and %d far pairs, want %d near: the case does not reach the table",
				c.name, st.PairsNear, st.PairsFar, places)
		}
		if st.ClassesIntegrated != 1 {
			t.Errorf("%s: %d classes integrated over %d translates of one pair, want 1",
				c.name, st.ClassesIntegrated, places)
		}
	}
}

// TestNearMissesNeverShareAClass perturbs one ingredient of a pair at a
// time: a relative change of 1e-6 must give a new class, one of a few ulp
// must land in the old one.
func TestNearMissesNeverShareAClass(t *testing.T) {
	arch := basis.ArchShape{EdgePos: 0.5, LambdaIn: 0.3, LambdaOut: 0.6}
	mk := func(width, gap float64, sh basis.ArchShape) *basis.Set {
		// Coordinates like the builder's: sums and differences of
		// micron-sized numbers, nowhere near lattice points.
		return pairSet(
			tpl(geom.Z, 0.1e-6, 1e-6/3, 1e-6/3+width, 0, 0.7e-6, basis.VaryU, sh, 1),
			tpl(geom.Z, 0.1e-6+gap, 0.2e-6, 1.3e-6, 0.1e-6, 0.9e-6, basis.VaryNone, basis.FlatShape{}, 1))
	}
	const width, gap = 1.1e-6, 0.4e-6
	ulps := func(x float64, n int) float64 {
		for ; n > 0; n-- {
			x = math.Nextafter(x, math.Inf(1))
		}
		return x
	}
	cases := []struct {
		name string
		set  *basis.Set
		same bool
	}{
		{"extent +1e-6", mk(width*(1+1e-6), gap, arch), false},
		{"extent +3ulp", mk(ulps(width, 3), gap, arch), true},
		{"offset +1e-6", mk(width, gap*(1+1e-6), arch), false},
		{"offset +3ulp", mk(width, ulps(gap, 3), arch), true},
		{"edge +1e-6", mk(width, gap, basis.ArchShape{EdgePos: 0.5 * (1 + 1e-6), LambdaIn: 0.3, LambdaOut: 0.6}), false},
		{"edge +3ulp", mk(width, gap, basis.ArchShape{EdgePos: ulps(0.5, 3), LambdaIn: 0.3, LambdaOut: 0.6}), true},
		{"edge -3ulp", mk(width, gap, basis.ArchShape{EdgePos: -ulps(-0.5, 3), LambdaIn: 0.3, LambdaOut: 0.6}), true},
		{"lambda +1e-6", mk(width, gap, basis.ArchShape{EdgePos: 0.5, LambdaIn: 0.3, LambdaOut: 0.6 * (1 + 1e-6)}), false},
		{"lambda +3ulp", mk(width, gap, basis.ArchShape{EdgePos: 0.5, LambdaIn: ulps(0.3, 3), LambdaOut: 0.6}), true},
	}
	for _, c := range cases {
		in := NewIntegrator()
		in.Pairs = NewPairCache(0)
		in.Intern(mk(width, gap, arch)).Pair(0, 1)
		in.Intern(c.set).Pair(0, 1)
		if got := in.FillStats().ClassesIntegrated == 1; got != c.same {
			t.Errorf("%s: shared the unperturbed pair's class = %v, want %v", c.name, got, c.same)
		}
	}
}

// TestPairCacheRepeatsWithinAndAcrossFills checks the two kinds of reuse
// on a real basis: a fill integrates fewer classes than it has near
// pairs, a second fill on the same table integrates none, and both give
// the same matrix as a fill with a table of its own, bit for bit.
func TestPairCacheRepeatsWithinAndAcrossFills(t *testing.T) {
	set := busSet()
	want := FillSerial(set, NewIntegrator())
	in := NewIntegrator()
	in.Pairs = NewPairCache(0)
	first := FillSerial(set, in)
	s1 := in.FillStats()
	second := FillSerial(set, in)
	s2 := in.FillStats()
	for i, v := range want.Data {
		if first.Data[i] != v || second.Data[i] != v {
			t.Fatalf("P[%d]: own table %g, shared table %g then %g", i, v, first.Data[i], second.Data[i])
		}
	}
	if s1.ClassesIntegrated == 0 || s1.ClassesIntegrated >= s1.PairsNear {
		t.Errorf("first fill integrated %d classes for %d near pairs", s1.ClassesIntegrated, s1.PairsNear)
	}
	if s2.ClassesIntegrated != s1.ClassesIntegrated || s2.PairsNear != 2*s1.PairsNear {
		t.Errorf("second fill integrated %d more classes", s2.ClassesIntegrated-s1.ClassesIntegrated)
	}
	// Every near pair is one lookup, a miss if it added its class: the
	// table holds one entry per miss, and the second fill, which added
	// none, was served hits alone — some of them by its cursor.
	if int64(in.Pairs.Len()) != s2.ClassesIntegrated || in.Pairs.Bytes() == 0 {
		t.Errorf("table holds %d classes in %d bytes, integrated %d", in.Pairs.Len(), in.Pairs.Bytes(), s2.ClassesIntegrated)
	}
	hits1, hits2 := s1.PairsNear-s1.ClassesIntegrated, s2.PairsNear-s1.PairsNear
	if seq2 := s2.PairSequential - s1.PairSequential; s1.PairSequential > hits1 || seq2 > hits2 || seq2 <= s1.PairSequential {
		t.Errorf("cursor served %d of %d hits, then %d of %d", s1.PairSequential, hits1, seq2, hits2)
	}
}

func TestPairCacheTranslatedStructuresShareClasses(t *testing.T) {
	// Two identical crossing structures offset by a whole number of
	// microns: the second must fill from the first one's classes.
	mk := func(off float64) *basis.Set {
		sp := geom.DefaultCrossingPair()
		st := sp.Build()
		for _, c := range st.Conductors {
			for bi := range c.Boxes {
				c.Boxes[bi].Min.X += off
				c.Boxes[bi].Max.X += off
			}
		}
		return basis.Build(st, basis.DefaultBuilderOptions())
	}
	in := NewIntegrator()
	in.Pairs = NewPairCache(0)
	FillSerial(mk(0), in)
	before := in.FillStats().ClassesIntegrated
	FillSerial(mk(4e-6), in)
	if added := in.FillStats().ClassesIntegrated - before; added > before/20 {
		t.Fatalf("translated copy integrated %d new classes on top of %d", added, before)
	}
}

// TestPairCacheBound fills through a table with the smallest bound there
// is, one page of the log: the table never holds more, it does get there
// (so generations were replaced under the fill), and P is bit for bit the
// one a table that never rolls gives.
func TestPairCacheBound(t *testing.T) {
	c := NewPairCache(1)
	if c.limit != pairPage {
		t.Fatalf("smallest table is bounded to %d entries, want one page (%d)", c.limit, pairPage)
	}
	set := busSet()
	in := NewIntegrator()
	in.Pairs = c
	f, priv := in.Intern(set), NewIntegrator().Intern(set)
	var st, ps FillStats
	reached := false
	for i := 0; i < set.M(); i++ {
		for j := i; j < set.M(); j++ {
			if got, want := f.PairInto(i, j, &st), priv.PairInto(i, j, &ps); got != want {
				t.Fatalf("pair (%d, %d) = %g under a table that keeps rolling, %g otherwise", i, j, got, want)
			}
			if n := c.Len(); n > pairPage {
				t.Fatalf("table grew to %d entries, bound %d", n, pairPage)
			} else if n == pairPage {
				reached = true
			}
		}
	}
	if !reached || st.ClassesIntegrated <= 2*pairPage {
		t.Fatalf("%d classes integrated: the bound was not reached twice", st.ClassesIntegrated)
	}
	want, got := FillSerial(set, NewIntegrator()), FillSerial(set, in)
	for i, v := range want.Data {
		if got.Data[i] != v {
			t.Fatalf("P[%d] = %g under a table that keeps rolling, %g otherwise", i, got.Data[i], v)
		}
	}
}

func TestPairCacheConfigsDoNotAlias(t *testing.T) {
	// One shared table, two differently-configured integrators: each
	// must get its own values, not the other's.
	set := busSet()
	pc := NewPairCache(0)
	std := NewIntegrator()
	std.Pairs = pc
	coarse := &Integrator{Cfg: kernel.DefaultConfig(), Pairs: pc}
	coarse.Cfg.QuadOrder = 2
	plainCoarse := &Integrator{Cfg: kernel.DefaultConfig()}
	plainCoarse.Cfg.QuadOrder = 2

	FillSerial(set, std) // prime with the standard config
	got, want := FillSerial(set, coarse), FillSerial(set, plainCoarse)
	for i, v := range want.Data {
		if got.Data[i] != v {
			t.Fatalf("P[%d]: coarse config served %g from a table primed by the standard one, want %g", i, got.Data[i], v)
		}
	}
}

// rampShape is a basis.Shape the class key has no encoding for.
type rampShape struct{}

func (rampShape) Eval(t float64) float64 { return t }
func (rampShape) Mean() float64          { return 0.5 }
func (rampShape) FirstMoment() float64   { return 1. / 3 }

func TestPairCacheBypasses(t *testing.T) {
	ramp := tpl(geom.Z, 0, 0, 1, 0, 1, basis.VaryU, rampShape{}, 1)
	flat := tpl(geom.Z, 0.5, 0, 1, 0, 1, basis.VaryNone, basis.FlatShape{}, 1)
	set := pairSet(ramp, flat)

	// A shape the key cannot describe is integrated where it stands.
	in := NewIntegrator()
	f := in.Intern(set)
	if got, want := f.Pair(0, 1), in.TemplatePair(&ramp, &flat); got != want {
		t.Errorf("foreign shape: %g, direct %g", got, want)
	}
	if f.Pair(1, 1); in.FillStats().ClassesIntegrated != 1 {
		t.Errorf("flat self pair beside a foreign shape: %d classes, want 1", in.FillStats().ClassesIntegrated)
	}
}

// TestPairCacheOldArithmeticNeverAdopted shares one table between a fill
// of the arithmetic before kernel.ArithVersion existed (fingerprint id 1,
// the standard-library provider) and a fill of today's: every class the
// old fill left behind, poisoned here so that adopting one would show, is
// a miss for the new fill, which integrates all of its classes afresh.
func TestPairCacheOldArithmeticNeverAdopted(t *testing.T) {
	set := busSet()
	fresh := NewIntegrator()
	want := FillSerial(set, fresh)
	classes := fresh.FillStats().ClassesIntegrated

	pc := NewPairCache(0)
	in := NewIntegrator()
	in.Pairs = pc
	old := in.intern(&Interned{set: set}, set.M(), in.cacheFingerprint(1))
	var c FillStats
	for i := 0; i < set.M(); i++ {
		for j := i; j < set.M(); j++ {
			old.PairInto(i, j, &c)
		}
	}
	if c.ClassesIntegrated != classes || int64(pc.Len()) != classes {
		t.Fatalf("old-arithmetic fill stored %d classes (table %d), want %d", c.ClassesIntegrated, pc.Len(), classes)
	}
	g := pc.gen.Load()
	for p := uint32(0); p < g.n.Load(); p++ {
		g.entry(p).val = math.NaN()
	}

	got := FillSerial(set, in)
	if st := in.FillStats(); st.ClassesIntegrated != classes {
		t.Errorf("fill over an old table integrated %d classes, want all %d", st.ClassesIntegrated, classes)
	}
	if int64(pc.Len()) != 2*classes {
		t.Errorf("table holds %d classes, want the old %d beside the new %d", pc.Len(), classes, classes)
	}
	for i, v := range want.Data {
		if got.Data[i] != v {
			t.Fatalf("P[%d] = %g over a table of old-arithmetic values, %g from a fresh table", i, got.Data[i], v)
		}
	}
}

func TestAlignColumns(t *testing.T) {
	set := busSet()
	K := NumPairs(set.M())
	starts := map[int64]bool{K: true}
	for _, fn := range set.Functions {
		starts[IJToK(0, fn.TplLo)] = true
	}
	for _, d := range []int{1, 2, 5, 16, 64, 4 * set.N()} {
		b := AlignColumns(set, PartitionK(K, d))
		if len(b) != d+1 || b[0] != 0 || b[d] != K {
			t.Fatalf("d=%d: bounds %v", d, b)
		}
		for i := 1; i <= d; i++ {
			if b[i] < b[i-1] {
				t.Fatalf("d=%d: boundaries not monotone: %v", d, b)
			}
			if !starts[b[i]] {
				t.Fatalf("d=%d: boundary %d does not start a column of P", d, b[i])
			}
		}
	}
	// A sub-range with aligned ends keeps them.
	b := AlignColumns(set, PartitionK(K, 4))
	sub := AlignColumns(set, []int64{b[1], (b[1] + b[2]) / 2, b[2]})
	if sub[0] != b[1] || sub[2] != b[2] {
		t.Fatalf("sub-range ends moved: %v within [%d, %d]", sub, b[1], b[2])
	}
}

// TestPairCacheClassIndexBound drives a shared table past its class-index
// bound, as a long-lived engine fed ever-new geometry would: the index is
// forgotten, ids are never reused, so values stored before can only go
// unreached, not be served for the wrong class.
func TestPairCacheClassIndexBound(t *testing.T) {
	in := NewIntegrator()
	in.Pairs = NewPairCache(0)
	set := busSet()
	want := FillSerial(set, NewIntegrator())
	FillSerial(set, in)
	flat := basis.FlatShape{}
	for i := 1; i <= maxClasses+10; i++ {
		w := 1 + float64(i)/(1<<15)
		in.Intern(pairSet(tpl(geom.Z, 0, 0, w, 0, 1, basis.VaryNone, flat, 1), tpl(geom.Z, 1, 0, 1, 0, 1, basis.VaryNone, flat, 1)))
	}
	if n := len(in.Pairs.classes); n > maxClasses {
		t.Fatalf("class index holds %d classes, bound %d", n, maxClasses)
	}
	got := FillSerial(set, in)
	for i, v := range want.Data {
		if got.Data[i] != v {
			t.Fatalf("P[%d] = %g after the class index was forgotten, want %g", i, got.Data[i], v)
		}
	}
}
