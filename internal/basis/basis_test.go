package basis

import (
	"math"
	"testing"
	"testing/quick"

	"parbem/internal/geom"
	"parbem/internal/quad"
)

func TestFlatShape(t *testing.T) {
	var f FlatShape
	if f.Eval(0.3) != 1 || f.Mean() != 1 {
		t.Error("FlatShape must be identically 1")
	}
}

func TestArchShapeProperties(t *testing.T) {
	a := ArchShape{EdgePos: 0.6, LambdaIn: 0.2, LambdaOut: 0.1}
	// Peak of 1 at the edge.
	if got := a.Eval(0.6); math.Abs(got-1) > 1e-15 {
		t.Errorf("peak = %g", got)
	}
	// Monotone rise then fall.
	if !(a.Eval(0.1) < a.Eval(0.4) && a.Eval(0.4) < a.Eval(0.6)) {
		t.Error("not rising toward the edge")
	}
	if !(a.Eval(0.6) > a.Eval(0.8) && a.Eval(0.8) > a.Eval(1.0)) {
		t.Error("not decaying past the edge")
	}
	// Mean matches numerical integration.
	num := quad.Integrate1D(a.Eval, 0, a.EdgePos, 32) +
		quad.Integrate1D(a.Eval, a.EdgePos, 1, 32)
	if math.Abs(a.Mean()-num) > 1e-10 {
		t.Errorf("Mean = %g, numeric = %g", a.Mean(), num)
	}
	// Breakpoint reported at the edge.
	bp, ok := a.Breakpoint()
	if !ok || bp != 0.6 {
		t.Errorf("Breakpoint = %v %v", bp, ok)
	}
}

func TestArchShapeMeanProperty(t *testing.T) {
	f := func(e, li, lo float64) bool {
		a := ArchShape{
			EdgePos:   0.05 + math.Mod(math.Abs(e), 0.9),
			LambdaIn:  0.01 + math.Mod(math.Abs(li), 2),
			LambdaOut: 0.01 + math.Mod(math.Abs(lo), 2),
		}
		num := quad.Integrate1D(a.Eval, 0, a.EdgePos, 32) +
			quad.Integrate1D(a.Eval, a.EdgePos, 1, 32)
		return math.Abs(a.Mean()-num) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTemplateValueAndMoment(t *testing.T) {
	sup := geom.Rect{Normal: geom.Z, U: geom.Interval{Lo: 0, Hi: 2}, V: geom.Interval{Lo: 0, Hi: 3}}
	flat := Template{Support: sup, Dir: VaryNone, Shape: FlatShape{}, Amplitude: 2}
	if flat.Value(1, 1) != 2 {
		t.Error("flat value wrong")
	}
	if flat.Moment() != 12 {
		t.Errorf("flat moment = %g want 12", flat.Moment())
	}
	arch := Template{Support: sup, Dir: VaryU,
		Shape: ArchShape{EdgePos: 0.5, LambdaIn: 0.3, LambdaOut: 0.3}, Amplitude: 1}
	// Value at the shadow edge (u = 1 -> t = 0.5) is the peak.
	if got := arch.Value(1, 1.5); math.Abs(got-1) > 1e-15 {
		t.Errorf("arch peak value = %g", got)
	}
	// Moment = mean * area.
	want := arch.Shape.Mean() * 6
	if math.Abs(arch.Moment()-want) > 1e-12 {
		t.Errorf("arch moment = %g want %g", arch.Moment(), want)
	}
	// VaryV direction picks the v coordinate.
	archV := arch
	archV.Dir = VaryV
	if got := archV.Value(0.1, 1.5); math.Abs(got-1) > 1e-15 {
		t.Errorf("VaryV value = %g", got)
	}
}

// mergedRangePair returns a crossing whose library ratio R = 3.5*w/h - 1
// falls inside the merged-mode validity range [0.5, 4].
func mergedRangePair() *geom.Structure {
	sp := geom.DefaultCrossingPair()
	sp.H = sp.Width // w/h = 1 -> R = 2.5
	return sp.Build()
}

func TestBuildCrossingPairMerged(t *testing.T) {
	set := Build(mergedRangePair(), BuilderOptions{})
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	kinds := set.CountKinds()
	if kinds[KindFace] != 12 {
		t.Errorf("face functions = %d want 12", kinds[KindFace])
	}
	// One facing pair -> one merged induced function per face, each
	// assembling the flat shadow template with its two reflected arches
	// at the library amplitude ratio.
	if kinds[KindShadow] != 2 {
		t.Errorf("merged induced functions = %d want 2", kinds[KindShadow])
	}
	if kinds[KindArchPair] != 0 {
		t.Errorf("arch-pair functions = %d want 0 in merged mode", kinds[KindArchPair])
	}
	for _, f := range set.Functions {
		if f.Kind != KindShadow {
			continue
		}
		if n := f.TplHi - f.TplLo; n != 3 {
			t.Errorf("merged induced function has %d templates, want 3", n)
		}
		// First template is the flat shadow at amplitude 1; arches share
		// one fixed ratio > 0.
		if set.Templates[f.TplLo].Amplitude != 1 || !set.Templates[f.TplLo].IsFlat() {
			t.Error("first merged template is not the unit flat shadow")
		}
		r := set.Templates[f.TplLo+1].Amplitude
		if r <= 0 || set.Templates[f.TplLo+2].Amplitude != r {
			t.Errorf("arch amplitudes %g, %g not an equal positive pair",
				r, set.Templates[f.TplLo+2].Amplitude)
		}
	}
}

func TestBuildOutOfRangeRatioFallsBack(t *testing.T) {
	// The default crossing pair has w/h = 2 -> R = 6, outside the
	// library's validity range: the builder must emit independent
	// shadow and arch-pair functions instead of a merged one.
	st := geom.DefaultCrossingPair().Build()
	set := Build(st, BuilderOptions{})
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	kinds := set.CountKinds()
	if kinds[KindShadow] != 2 || kinds[KindArchPair] != 2 {
		t.Errorf("fallback kinds = %v, want 2 shadows + 2 arch pairs", kinds)
	}
}

func TestBuildCrossingPairSeparate(t *testing.T) {
	st := mergedRangePair()
	opt := BuilderOptions{}
	opt.SeparateInduced = true
	set := Build(st, opt)
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	kinds := set.CountKinds()
	if kinds[KindShadow] != 2 {
		t.Errorf("shadow functions = %d want 2", kinds[KindShadow])
	}
	if kinds[KindArchPair] != 2 {
		t.Errorf("arch-pair functions = %d want 2", kinds[KindArchPair])
	}
	for _, f := range set.Functions {
		if f.Kind == KindArchPair && f.TplHi-f.TplLo != 2 {
			t.Errorf("arch pair with %d templates", f.TplHi-f.TplLo)
		}
	}
	// Separate mode has more functions than merged mode (the ablation's
	// degrees-of-freedom trade) on an in-range geometry.
	merged := Build(st, BuilderOptions{})
	if set.N() <= merged.N() {
		t.Errorf("separate N = %d not larger than merged N = %d", set.N(), merged.N())
	}
	if set.M() != merged.M() {
		t.Errorf("template count changed: %d vs %d (must be identical)", set.M(), merged.M())
	}
}

func TestBuildSkipsTouchingConductors(t *testing.T) {
	// Two boxes of different conductors touching (h = 0): no induced
	// bases should be created for that pair.
	st := &geom.Structure{
		Name: "touching",
		Conductors: []*geom.Conductor{
			{Name: "a", Boxes: []geom.Box{geom.NewBox(
				geom.Vec3{X: 0, Y: 0, Z: 0}, geom.Vec3{X: 1e-6, Y: 1e-6, Z: 1e-6})}},
			{Name: "b", Boxes: []geom.Box{geom.NewBox(
				geom.Vec3{X: 0, Y: 0, Z: 1e-6}, geom.Vec3{X: 1e-6, Y: 1e-6, Z: 2e-6})}},
		},
	}
	set := Build(st, BuilderOptions{})
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	kinds := set.CountKinds()
	if kinds[KindShadow] != 0 || kinds[KindArchPair] != 0 {
		t.Errorf("touching conductors produced induced bases: %v", kinds)
	}
}

func TestBuildShadowSkippedWhenCoveringFace(t *testing.T) {
	// Two identical stacked plates: the facing overlap covers the whole
	// face, so the shadow basis would duplicate the face basis.
	st := &geom.Structure{
		Name: "plates",
		Conductors: []*geom.Conductor{
			{Name: "a", Boxes: []geom.Box{geom.NewBox(
				geom.Vec3{X: 0, Y: 0, Z: 0}, geom.Vec3{X: 4e-6, Y: 4e-6, Z: 1e-6})}},
			{Name: "b", Boxes: []geom.Box{geom.NewBox(
				geom.Vec3{X: 0, Y: 0, Z: 2e-6}, geom.Vec3{X: 4e-6, Y: 4e-6, Z: 3e-6})}},
		},
	}
	set := Build(st, BuilderOptions{})
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	if k := set.CountKinds(); k[KindShadow] != 0 {
		t.Errorf("full-cover shadow not skipped: %v", k)
	}
}

func TestMomentsAndClone(t *testing.T) {
	st := geom.DefaultCrossingPair().Build()
	set := Build(st, BuilderOptions{})
	m := set.Moments()
	if len(m) != set.N() {
		t.Fatalf("moments length %d", len(m))
	}
	for i, v := range m {
		if v <= 0 {
			t.Errorf("moment %d = %g not positive", i, v)
		}
	}
	c := set.Clone()
	c.Templates[0].Amplitude = 99
	if set.Templates[0].Amplitude == 99 {
		t.Error("Clone shares template storage")
	}
	c.Owner[0] = 7
	if set.Owner[0] == 7 {
		t.Error("Clone shares owner storage")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	st := geom.DefaultCrossingPair().Build()
	set := Build(st, BuilderOptions{})

	bad := set.Clone()
	bad.Owner[len(bad.Owner)-1] = 0
	if err := bad.Validate(); err == nil {
		t.Error("corrupted owner not detected")
	}

	bad2 := set.Clone()
	bad2.Functions[0].TplHi = bad2.Functions[0].TplLo
	if err := bad2.Validate(); err == nil {
		t.Error("empty template range not detected")
	}

	bad3 := set.Clone()
	bad3.Templates[0].Amplitude = 0
	if err := bad3.Validate(); err == nil {
		t.Error("zero amplitude not detected")
	}
}

func TestKindString(t *testing.T) {
	if KindFace.String() != "face" || KindShadow.String() != "shadow" ||
		KindArchPair.String() != "arch-pair" {
		t.Error("Kind.String wrong")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should still format")
	}
}

func TestInterleavedEmissionBalancesKinds(t *testing.T) {
	// On a structure with many induced bases, face and induced functions
	// must be interleaved (not all faces first): check that the first
	// quarter of the function list contains some of each.
	st := geom.DefaultBus(6, 6).Build()
	set := Build(st, BuilderOptions{})
	quarter := set.N() / 4
	var faces, induced int
	for _, f := range set.Functions[:quarter] {
		if f.Kind == KindFace {
			faces++
		} else {
			induced++
		}
	}
	if faces == 0 || induced == 0 {
		t.Errorf("first quarter not interleaved: %d faces, %d induced", faces, induced)
	}
}
