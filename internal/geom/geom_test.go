package geom

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestVecBasics(t *testing.T) {
	v := Vec3{1, 2, 3}
	w := Vec3{4, -5, 6}
	if got := v.Add(w); got != (Vec3{5, -3, 9}) {
		t.Errorf("Add = %v", got)
	}
	if got := v.Sub(w); got != (Vec3{-3, 7, -3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := v.Dot(w); got != 1*4-2*5+3*6 {
		t.Errorf("Dot = %v", got)
	}
	if got := v.Scale(2); got != (Vec3{2, 4, 6}) {
		t.Errorf("Scale = %v", got)
	}
	if got := (Vec3{3, 4, 0}).Norm(); got != 5 {
		t.Errorf("Norm = %v", got)
	}
	for _, ax := range []Axis{X, Y, Z} {
		if got := v.WithComponent(ax, 9).Component(ax); got != 9 {
			t.Errorf("WithComponent(%v) roundtrip = %v", ax, got)
		}
	}
}

func TestAxisOther(t *testing.T) {
	if X.String() != "X" || Y.String() != "Y" || Z.String() != "Z" {
		t.Error("Axis.String wrong")
	}
}

func TestIntervalOps(t *testing.T) {
	a := Interval{0, 2}
	b := Interval{1, 3}
	c := Interval{5, 6}
	if !a.Overlaps(b) || a.Overlaps(c) {
		t.Error("Overlaps wrong")
	}
	iv, ok := a.Intersect(b)
	if !ok || iv != (Interval{1, 2}) {
		t.Errorf("Intersect = %v %v", iv, ok)
	}
	if _, ok := a.Intersect(c); ok {
		t.Error("Intersect should be empty")
	}
	if g := a.Gap(c); g != 3 {
		t.Errorf("Gap = %v", g)
	}
	if g := c.Gap(a); g != 3 {
		t.Errorf("Gap reversed = %v", g)
	}
	if a.Gap(b) != 0 {
		t.Error("overlapping gap should be 0")
	}
	if a.DistTo(-1) != 1 || a.DistTo(3) != 1 || a.DistTo(1) != 0 {
		t.Error("DistTo wrong")
	}
	if a.Mid() != 1 || a.Len() != 2 {
		t.Error("Mid/Len wrong")
	}
}

func TestRectGeometry(t *testing.T) {
	r := Rect{Normal: Z, Offset: 2, U: Interval{0, 3}, V: Interval{0, 4}}
	if r.UAxis() != X || r.VAxis() != Y {
		t.Error("rect axes wrong for Z normal")
	}
	if r.Area() != 12 {
		t.Errorf("Area = %v", r.Area())
	}
	if got := r.Center(); got != (Vec3{1.5, 2, 2}) {
		t.Errorf("Center = %v", got)
	}
	if got := r.Diameter(); got != 5 {
		t.Errorf("Diameter = %v", got)
	}
	if p := r.Point(1, 2); p != (Vec3{1, 2, 2}) {
		t.Errorf("Point = %v", p)
	}

	rx := Rect{Normal: X, Offset: 1, U: Interval{0, 1}, V: Interval{0, 1}}
	if rx.UAxis() != Y || rx.VAxis() != Z {
		t.Error("rect axes wrong for X normal")
	}
	ry := Rect{Normal: Y, Offset: 1, U: Interval{0, 1}, V: Interval{0, 1}}
	if ry.UAxis() != X || ry.VAxis() != Z {
		t.Error("rect axes wrong for Y normal")
	}
}

func TestRectDist(t *testing.T) {
	a := Rect{Normal: Z, Offset: 0, U: Interval{0, 1}, V: Interval{0, 1}}
	b := Rect{Normal: Z, Offset: 3, U: Interval{0, 1}, V: Interval{0, 1}}
	if d := a.Dist(b); d != 3 {
		t.Errorf("stacked dist = %v", d)
	}
	c := Rect{Normal: Z, Offset: 0, U: Interval{4, 5}, V: Interval{0, 1}}
	if d := a.Dist(c); d != 3 {
		t.Errorf("coplanar dist = %v", d)
	}
	diag := Rect{Normal: Z, Offset: 4, U: Interval{4, 5}, V: Interval{1, 2}}
	if d := a.Dist(diag); math.Abs(d-5) > 1e-12 {
		t.Errorf("diag dist = %v, want 5", d)
	}
	// Perpendicular pair.
	p := Rect{Normal: X, Offset: 2, U: Interval{0, 1}, V: Interval{0, 1}}
	if d := a.Dist(p); d != 1 {
		t.Errorf("perp dist = %v", d)
	}
	if d := a.DistToPoint(Vec3{0.5, 0.5, 7}); d != 7 {
		t.Errorf("DistToPoint = %v", d)
	}
}

func TestRectSplitGrid(t *testing.T) {
	r := Rect{Normal: Z, U: Interval{0, 1}, V: Interval{0, 2}}
	parts := r.SplitGrid(2, 4, nil)
	if len(parts) != 8 {
		t.Fatalf("SplitGrid count = %d", len(parts))
	}
	var area float64
	for _, p := range parts {
		area += p.Area()
		if p.Normal != Z {
			t.Error("child normal changed")
		}
	}
	if math.Abs(area-r.Area()) > 1e-12 {
		t.Errorf("child areas sum to %v, want %v", area, r.Area())
	}
}

func TestSplitGridAreaProperty(t *testing.T) {
	f := func(w, h float64, nu, nv uint8) bool {
		// Map arbitrary floats into a sane size range (0.1, 100.1).
		w = math.Mod(math.Abs(w), 100) + 0.1
		h = math.Mod(math.Abs(h), 100) + 0.1
		if math.IsNaN(w) || math.IsNaN(h) {
			return true
		}
		u := int(nu%8) + 1
		v := int(nv%8) + 1
		r := Rect{Normal: Y, U: Interval{0, w}, V: Interval{0, h}}
		parts := r.SplitGrid(u, v, nil)
		if len(parts) != u*v {
			return false
		}
		var area float64
		for _, p := range parts {
			area += p.Area()
		}
		return math.Abs(area-r.Area()) < 1e-9*r.Area()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBoxFaces(t *testing.T) {
	b := NewBox(Vec3{1, 0, 0}, Vec3{0, 2, 3})
	if b.Min != (Vec3{0, 0, 0}) || b.Max != (Vec3{1, 2, 3}) {
		t.Fatalf("NewBox normalization wrong: %+v", b)
	}
	fs := b.Faces()
	var area float64
	for _, f := range fs {
		area += f.Area()
	}
	want := 2 * (1*2 + 2*3 + 1*3)
	if math.Abs(area-float64(want)) > 1e-12 {
		t.Errorf("total face area = %v, want %v", area, want)
	}
	if b.Center() != (Vec3{0.5, 1, 1.5}) {
		t.Errorf("Center = %v", b.Center())
	}
	if b.Size() != (Vec3{1, 2, 3}) {
		t.Errorf("Size = %v", b.Size())
	}
}

func TestWire(t *testing.T) {
	w := Wire(X, Vec3{0, 0, 0}, 10, 2, 1)
	if w.Size() != (Vec3{10, 2, 1}) {
		t.Errorf("X wire size = %v", w.Size())
	}
	w = Wire(Y, Vec3{0, 0, 0}, 10, 2, 1)
	if w.Size() != (Vec3{2, 10, 1}) {
		t.Errorf("Y wire size = %v", w.Size())
	}
	w = Wire(Z, Vec3{0, 0, 0}, 10, 2, 1)
	if w.Size() != (Vec3{2, 1, 10}) {
		t.Errorf("Z wire size = %v", w.Size())
	}
}

func TestCrossingPair(t *testing.T) {
	sp := DefaultCrossingPair()
	st := sp.Build()
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	if st.NumConductors() != 2 {
		t.Fatalf("conductors = %d", st.NumConductors())
	}
	bot := st.Conductors[0].Boxes[0]
	top := st.Conductors[1].Boxes[0]
	gap := top.Extent(Z).Lo - bot.Extent(Z).Hi
	if math.Abs(gap-sp.H) > 1e-18 {
		t.Errorf("vertical gap = %g, want %g", gap, sp.H)
	}
	// Wires must cross in plan view.
	if !bot.Extent(X).Overlaps(top.Extent(X)) || !bot.Extent(Y).Overlaps(top.Extent(Y)) {
		t.Error("wires do not cross in plan view")
	}
}

func TestBusStructure(t *testing.T) {
	sp := DefaultBus(24, 24)
	st := sp.Build()
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	if st.NumConductors() != 48 {
		t.Fatalf("conductors = %d", st.NumConductors())
	}
	// Every lower wire must cross every upper wire.
	for i := 0; i < sp.M; i++ {
		lo := st.Conductors[i].Boxes[0]
		for j := 0; j < sp.N; j++ {
			hi := st.Conductors[sp.M+j].Boxes[0]
			if !lo.Extent(X).Overlaps(hi.Extent(X)) || !lo.Extent(Y).Overlaps(hi.Extent(Y)) {
				t.Fatalf("wire %d and %d do not cross", i, sp.M+j)
			}
			if lo.Extent(Z).Overlaps(hi.Extent(Z)) {
				t.Fatalf("wire %d and %d overlap vertically", i, sp.M+j)
			}
		}
	}
}

func TestInterconnectStructure(t *testing.T) {
	st := DefaultInterconnect().Build()
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	if st.NumConductors() < 4 {
		t.Fatalf("too few conductors: %d", st.NumConductors())
	}
	if st.TotalFaces() < 40 {
		t.Fatalf("too few faces: %d", st.TotalFaces())
	}
}

func TestPanelize(t *testing.T) {
	sp := DefaultCrossingPair()
	st := sp.Build()
	coarse := st.Panelize(sp.Length) // one panel per face in length dir
	fine := st.Panelize(sp.Width / 2)
	if len(fine) <= len(coarse) {
		t.Fatalf("refinement did not increase panels: %d vs %d", len(fine), len(coarse))
	}
	// Panel areas must sum to total face area for any refinement.
	tot := func(ps []Panel) float64 {
		var a float64
		for _, p := range ps {
			a += p.Area()
		}
		return a
	}
	var faceArea float64
	for _, c := range st.Conductors {
		for _, f := range c.Faces() {
			faceArea += f.Area()
		}
	}
	for _, ps := range [][]Panel{coarse, fine} {
		if math.Abs(tot(ps)-faceArea) > 1e-9*faceArea {
			t.Errorf("panel area %g != face area %g", tot(ps), faceArea)
		}
	}
	// Conductor tags must be in range.
	for _, p := range fine {
		if p.Conductor < 0 || p.Conductor >= st.NumConductors() {
			t.Fatalf("bad conductor tag %d", p.Conductor)
		}
	}
}

func TestValidateErrors(t *testing.T) {
	if err := (&Structure{Name: "empty"}).Validate(); err == nil {
		t.Error("empty structure should fail validation")
	}
	st := &Structure{Name: "bad", Conductors: []*Conductor{{Name: "c"}}}
	if err := st.Validate(); err == nil {
		t.Error("conductor without boxes should fail validation")
	}
	st = &Structure{Name: "bad2", Conductors: []*Conductor{
		{Name: "c", Boxes: []Box{{Min: Vec3{0, 0, 0}, Max: Vec3{1, 0, 1}}}},
	}}
	if err := st.Validate(); err == nil {
		t.Error("zero-thickness box should fail validation")
	}
}

// TestValidateRejectsNonFiniteBoxes: a NaN or infinite coordinate, and a
// size that is not positive and finite, fail validation naming the
// conductor and the box. A NaN size compares false with 0, so a check
// written as size <= 0 lets it through.
func TestValidateRejectsNonFiniteBoxes(t *testing.T) {
	good := Box{Min: Vec3{0, 0, 0}, Max: Vec3{1, 1, 1}}
	type tc struct {
		name string
		box  Box
	}
	var cases []tc
	for k := 0; k < 6; k++ {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			b := good
			c := [6]*float64{&b.Min.X, &b.Min.Y, &b.Min.Z, &b.Max.X, &b.Max.Y, &b.Max.Z}
			*c[k] = v
			cases = append(cases, tc{fmt.Sprintf("coordinate %d = %v", k, v), b})
		}
	}
	cases = append(cases,
		tc{"zero size", Box{Min: Vec3{0, 0, 0}, Max: Vec3{1, 0, 1}}},
		tc{"inverted", Box{Min: Vec3{0, 0, 0}, Max: Vec3{1, 1, -1}}},
		tc{"overflowing size", Box{Min: Vec3{-math.MaxFloat64, 0, 0}, Max: Vec3{math.MaxFloat64, 1, 1}}},
	)
	for _, c := range cases {
		st := &Structure{Name: "s", Conductors: []*Conductor{
			{Name: "ok", Boxes: []Box{good}},
			{Name: "bad", Boxes: []Box{good, c.box}},
		}}
		err := st.Validate()
		if err == nil {
			t.Errorf("%s: %v to %v passes validation", c.name, c.box.Min, c.box.Max)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, `conductor 1 ("bad") box 1`) {
			t.Errorf("%s: %q does not name the conductor and the box", c.name, msg)
		}
	}
	if err := (&Structure{Name: "s", Conductors: []*Conductor{{Name: "ok", Boxes: []Box{good}}}}).Validate(); err != nil {
		t.Errorf("a unit cube fails validation: %v", err)
	}
}
