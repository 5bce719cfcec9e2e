package kernel

import (
	"math"
	"math/rand"
	"testing"

	"parbem/internal/geom"
	"parbem/internal/quad"
)

// refRectPotential integrates 1/|r-r'| over the source rectangle by brute
// 2-D quadrature (valid when p is well off the plane).
func refRectPotential(u1, u2, v1, v2, pu, pv, pz float64, n int) float64 {
	return quad.Integrate2D(func(u, v float64) float64 {
		du, dv := pu-u, pv-v
		return 1 / math.Sqrt(du*du+dv*dv+pz*pz)
	}, u1, u2, v1, v2, n, n)
}

func TestRectPotentialAgainstQuadrature(t *testing.T) {
	cases := []struct {
		u1, u2, v1, v2, pu, pv, pz float64
	}{
		{0, 1, 0, 1, 0.5, 0.5, 1.0},
		{0, 1, 0, 2, 3.0, -1.0, 0.5},
		{-1, 1, -1, 1, 0.0, 0.0, 2.0},
		{0, 0.1, 0, 0.1, 0.5, 0.5, 0.05},
		{-2, -1, 3, 4, 0, 0, 1.5},
	}
	for _, c := range cases {
		got := RectPotential(c.u1, c.u2, c.v1, c.v2, c.pu, c.pv, c.pz)
		want := refRectPotential(c.u1, c.u2, c.v1, c.v2, c.pu, c.pv, c.pz, 32)
		if rel := math.Abs(got-want) / math.Abs(want); rel > 1e-9 {
			t.Errorf("RectPotential(%+v) = %g, quadrature = %g (rel %g)", c, got, want, rel)
		}
	}
}

func TestRectPotentialInPlane(t *testing.T) {
	// Evaluation point in the plane of the rectangle but outside it:
	// integrable singularity-free case, closed form must stay finite.
	got := RectPotential(0, 1, 0, 1, 2.0, 0.5, 0)
	want := refRectPotential(0, 1, 0, 1, 2.0, 0.5, 0, 48)
	if rel := math.Abs(got-want) / want; rel > 1e-7 {
		t.Errorf("in-plane RectPotential = %g, want %g (rel %g)", got, want, rel)
	}
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("in-plane RectPotential not finite: %g", got)
	}
}

func TestRectPotentialCenterOnPanel(t *testing.T) {
	// Point exactly at the center of the rectangle (z=0): the integral is
	// improper but convergent; for a unit square its value is
	// 4*ln(1+sqrt(2)) (classic result).
	got := RectPotential(-0.5, 0.5, -0.5, 0.5, 0, 0, 0)
	want := 4 * math.Log(1+math.Sqrt2)
	if rel := math.Abs(got-want) / want; rel > 1e-12 {
		t.Errorf("self collocation = %.15g, want %.15g", got, want)
	}
}

func TestGalerkinParallelAgainstQuadrature(t *testing.T) {
	cases := []struct {
		tx1, tx2, ty1, ty2, sx1, sx2, sy1, sy2, Z float64
	}{
		{0, 1, 0, 1, 0, 1, 0, 1, 2.0},    // stacked squares
		{0, 1, 0, 1, 2, 3, 0, 1, 1.0},    // offset
		{0, 2, 0, 1, -1, 0.5, 2, 4, 0.7}, // general overlap in x
		{0, 1, 0, 1, 5, 6, 5, 6, 0.3},    // far coplanar-ish
	}
	for _, c := range cases {
		got := GalerkinParallel(c.tx1, c.tx2, c.ty1, c.ty2, c.sx1, c.sx2, c.sy1, c.sy2, c.Z)
		want := quad.Integrate4D(func(x, y, xp, yp float64) float64 {
			dx, dy := x-xp, y-yp
			return 1 / math.Sqrt(dx*dx+dy*dy+c.Z*c.Z)
		}, c.tx1, c.tx2, c.ty1, c.ty2, c.sx1, c.sx2, c.sy1, c.sy2, 16)
		if rel := math.Abs(got-want) / math.Abs(want); rel > 1e-8 {
			t.Errorf("GalerkinParallel(%+v) = %g, quadrature = %g (rel %g)", c, got, want, rel)
		}
	}
}

func TestGalerkinParallelSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		tx1, ty1 := rng.Float64()*4-2, rng.Float64()*4-2
		sx1, sy1 := rng.Float64()*4-2, rng.Float64()*4-2
		tw, th := rng.Float64()+0.1, rng.Float64()+0.1
		sw, sh := rng.Float64()+0.1, rng.Float64()+0.1
		Z := rng.Float64()*2 + 0.2
		a := GalerkinParallel(tx1, tx1+tw, ty1, ty1+th, sx1, sx1+sw, sy1, sy1+sh, Z)
		b := GalerkinParallel(sx1, sx1+sw, sy1, sy1+sh, tx1, tx1+tw, ty1, ty1+th, -Z)
		if rel := math.Abs(a-b) / math.Max(math.Abs(a), 1e-300); rel > 1e-9 {
			t.Fatalf("Galerkin not symmetric: %g vs %g (rel %g)", a, b, rel)
		}
		if a <= 0 {
			t.Fatalf("Galerkin integral of positive kernel non-positive: %g", a)
		}
	}
}

// duffySelf computes the Galerkin self-integral of the unit square by the
// standard separation-of-differences reduction: for the translation-
// invariant kernel, the 4-D self integral over [0,a]x[0,b] reduces to
//
//	int_{-a}^{a} int_{-b}^{b} (a-|X|)(b-|Y|)/sqrt(X^2+Y^2) dX dY
//
// which has an integrable singularity handled in polar coordinates.
func duffySelf(a, b float64, n int) float64 {
	// Exploit symmetry: 4 * int_0^a int_0^b (a-X)(b-Y)/r dX dY.
	// Substitute X = t*cos, Y = t*sin in two triangles.
	f := func(X, Y float64) float64 {
		return (a - X) * (b - Y) / math.Sqrt(X*X+Y*Y)
	}
	// Triangle 1: 0<=X<=a, 0<=Y<=X*b/a ; use X=u, Y=u*v*b/a, Jacobian u*b/a.
	t1 := quad.Integrate2D(func(u, v float64) float64 {
		return f(u, u*v*b/a) * u * b / a
	}, 0, a, 0, 1, n, n)
	// Triangle 2: 0<=Y<=b, 0<=X<=Y*a/b.
	t2 := quad.Integrate2D(func(v, u float64) float64 {
		return f(v*u*a/b, v) * v * a / b
	}, 0, b, 0, 1, n, n)
	return 4 * (t1 + t2)
}

func TestGalerkinSelfTerm(t *testing.T) {
	for _, dims := range [][2]float64{{1, 1}, {2, 1}, {0.5, 3}} {
		a, b := dims[0], dims[1]
		r := geom.Rect{Normal: geom.Z, U: geom.Interval{Lo: 0, Hi: a}, V: geom.Interval{Lo: 0, Hi: b}}
		got := SelfGalerkin(r)
		want := duffySelf(a, b, 48)
		if rel := math.Abs(got-want) / want; rel > 1e-8 {
			t.Errorf("self term %gx%g = %.12g, want %.12g (rel %g)", a, b, got, want, rel)
		}
	}
}

func TestGalerkinSelfTermUnitSquareKnownValue(t *testing.T) {
	// Exact value for the unit-square self integral:
	// 4*(ln(1+sqrt2) + (1-sqrt2)/3) = 2.9732095023...
	r := geom.Rect{Normal: geom.Z, U: geom.Interval{Lo: 0, Hi: 1}, V: geom.Interval{Lo: 0, Hi: 1}}
	got := SelfGalerkin(r)
	want := 4 * (math.Log(1+math.Sqrt2) + (1-math.Sqrt2)/3)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("unit square self = %.15f want %.15f", got, want)
	}
}

func TestRectGalerkinPerpendicular(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableApprox = true
	// Target in z=0 plane, source in x=2 plane (perpendicular).
	tgt := geom.Rect{Normal: geom.Z, Offset: 0,
		U: geom.Interval{Lo: 0, Hi: 1}, V: geom.Interval{Lo: 0, Hi: 1}}
	src := geom.Rect{Normal: geom.X, Offset: 2,
		U: geom.Interval{Lo: 0, Hi: 1}, V: geom.Interval{Lo: 0.5, Hi: 1.5}}
	got := RectGalerkin(cfg, tgt, src)
	// Brute force: integrate over target (x,y) and source (y', z').
	want := quad.Integrate4D(func(x, y, yp, zp float64) float64 {
		dx := x - 2.0
		dy := y - yp
		dz := 0.0 - zp
		return 1 / math.Sqrt(dx*dx+dy*dy+dz*dz)
	}, 0, 1, 0, 1, 0, 1, 0.5, 1.5, 16)
	if rel := math.Abs(got-want) / want; rel > 1e-4 {
		t.Errorf("perpendicular Galerkin = %g, want %g (rel %g)", got, want, rel)
	}
}

func TestApproximationDistanceAccuracy(t *testing.T) {
	// Far pairs must agree with the exact expression to well under 1%
	// (the paper's stated tolerance for dimension reduction).
	cfg := DefaultConfig()
	exact := *cfg
	exact.DisableApprox = true
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		t1 := geom.Rect{Normal: geom.Z, Offset: 0,
			U: geom.Interval{Lo: 0, Hi: 0.5 + rng.Float64()},
			V: geom.Interval{Lo: 0, Hi: 0.5 + rng.Float64()}}
		shift := 10 + rng.Float64()*40
		t2 := geom.Rect{Normal: geom.Z, Offset: rng.Float64() * 3,
			U: geom.Interval{Lo: shift, Hi: shift + 0.5 + rng.Float64()},
			V: geom.Interval{Lo: shift, Hi: shift + 0.5 + rng.Float64()}}
		a := RectGalerkin(cfg, t1, t2)
		b := RectGalerkin(&exact, t1, t2)
		if rel := math.Abs(a-b) / b; rel > 1e-2 {
			t.Fatalf("approximation error %g too large for separation %g", rel, t1.Dist(t2))
		}
	}
}

// TestConfigFingerprint: the fingerprint tells apart configurations that
// differ in QuadOrder or DisableApprox, and arithmetic versions, and two
// equal configurations built separately agree.
func TestConfigFingerprint(t *testing.T) {
	def := DefaultConfig().Fingerprint(ArithVersion)
	if lit := (&Config{QuadOrder: 4}).Fingerprint(ArithVersion); lit != def {
		t.Fatalf("a literal default configuration fingerprints %#x, DefaultConfig %#x", lit, def)
	}
	seen := map[uint64]string{def: "default"}
	for _, c := range []struct {
		name string
		fp   uint64
	}{
		{"QuadOrder 5", (&Config{QuadOrder: 5}).Fingerprint(ArithVersion)},
		{"QuadOrder 12", (&Config{QuadOrder: 12}).Fingerprint(ArithVersion)},
		{"DisableApprox", (&Config{QuadOrder: 4, DisableApprox: true}).Fingerprint(ArithVersion)},
		{"exact QuadOrder 12", (&Config{QuadOrder: 12, DisableApprox: true}).Fingerprint(ArithVersion)},
		{"arithmetic before", DefaultConfig().Fingerprint(ArithVersion - 1)},
	} {
		if prev, dup := seen[c.fp]; dup {
			t.Errorf("%s fingerprints like %s: %#x", c.name, prev, c.fp)
		}
		seen[c.fp] = c.name
	}
}

// benchBlock builds one target and a block of sources spanning the
// near/mid/far mix of a leaf-pair near block: same-plane neighbours,
// perpendicular close pairs and separated pairs.
func benchBlock() (geom.Rect, []geom.Rect) {
	rng := rand.New(rand.NewSource(3))
	tgt := geom.Rect{Normal: geom.Z,
		U: geom.Interval{Lo: 0, Hi: 1}, V: geom.Interval{Lo: 0, Hi: 1}}
	src := make([]geom.Rect, 0, 48)
	for i := 0; i < 48; i++ {
		src = append(src, randRect(rng, 3))
	}
	return tgt, src
}

func BenchmarkRectGalerkinPairwise(b *testing.B) {
	cfg := DefaultConfig()
	tgt, src := benchBlock()
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range src {
			sink += RectGalerkin(cfg, tgt, s)
		}
	}
	_ = sink
}

func TestScaleAndPointKernel(t *testing.T) {
	if got := Scale(FourPiEps0); got != 1 {
		t.Errorf("Scale(4pi eps0) = %g, want 1", got)
	}
}

// rectPotentialRef is the unpaired second difference of F2: eight
// logarithms, each corner on its own.
func rectPotentialRef(u1, u2, v1, v2, pu, pv, pz float64) float64 {
	return F2(pu-u1, pv-v1, pz) - F2(pu-u2, pv-v1, pz) -
		F2(pu-u1, pv-v2, pz) + F2(pu-u2, pv-v2, pz)
}

func TestRectPotentialPairedMatchesFourF2(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	check := func(what string, u1, u2, v1, v2, pu, pv, pz float64) {
		t.Helper()
		got := RectPotential(u1, u2, v1, v2, pu, pv, pz)
		want := rectPotentialRef(u1, u2, v1, v2, pu, pv, pz)
		// The four corner values, not their difference, set the rounding
		// of the reference: logs of coordinates up to the farthest corner.
		ext := math.Abs(pu-u1) + math.Abs(pu-u2) + math.Abs(pv-v1) + math.Abs(pv-v2) + math.Abs(pz)
		scale := ext * (1 + math.Abs(math.Log(ext)))
		if math.IsNaN(got) || math.Abs(got-want) > 1e-13*scale {
			t.Fatalf("%s: paired %.17g, four F2 %.17g (diff %g, scale %g) at rect [%g,%g]x[%g,%g] point (%g,%g,%g)",
				what, got, want, got-want, scale, u1, u2, v1, v2, pu, pv, pz)
		}
	}
	for i := 0; i < 20000; i++ {
		unit := math.Pow(10, float64(rng.Intn(9)-7)) // 1e-7 .. 10
		u1, v1 := (rng.Float64()-0.5)*4*unit, (rng.Float64()-0.5)*4*unit
		u2, v2 := u1+(0.05+rng.Float64())*unit, v1+(0.05+rng.Float64())*unit
		p := func() float64 { return (rng.Float64() - 0.5) * 8 * unit }
		uin, vin := u1+rng.Float64()*(u2-u1), v1+rng.Float64()*(v2-v1)
		check("general", u1, u2, v1, v2, p(), p(), p())
		check("in plane", u1, u2, v1, v2, p(), p(), 0)
		check("above the panel", u1, u2, v1, v2, uin, vin, p())
		check("on the panel", u1, u2, v1, v2, uin, vin, 0)
		check("edge extension", u1, u2, v1, v2, u1, p(), 0)
		check("edge extension off plane", u1, u2, v1, v2, p(), v2, p())
		check("on an edge", u1, u2, v1, v2, u2, vin, 0)
		check("corner", u1, u2, v1, v2, u1, v2, 0)
		check("above a corner", u1, u2, v1, v2, u2, v1, p())
		check("centre", u1, u2, v1, v2, 0.5*(u1+u2), 0.5*(v1+v2), 0)
		check("far", u1, u2, v1, v2, 50*p(), 50*p(), p())
	}
}

// F3 is the antiderivative of 1/r taken twice in X and once in Y:
//
//	F3 = X*Y*ln(X+r) + (X^2-Z^2)/2*ln(Y+r)
//	   + X*Z*atan2(Y*Z, X^2+Z^2+X*r) - X*Y - Y*r/2
//
// f3DiffY, the form the strip integrals evaluate, is checked against the
// difference of two of these.
func F3(X, Y, Z float64) float64 {
	s, yr := f3Rest(X, Y, Z)
	return s + logTerm(0.5*(X*X-Z*Z), yr)
}

func TestF3DiffYMatchesF3(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 20000; i++ {
		p := func() float64 { return (rng.Float64() - 0.5) * 4 }
		X, Ya, Yb, Z := p(), p(), p(), p()
		switch i % 5 {
		case 1:
			Z = 0
		case 2:
			X = 0
		case 3:
			Ya, Z = 0, 0
		case 4:
			X, Z = Z, X // |X| = |Z| pairs: the shared coefficient vanishes
			if i%2 == 0 {
				Z = X
			}
		}
		got, want := f3DiffY(X, Ya, Yb, Z), F3(X, Ya, Z)-F3(X, Yb, Z)
		if math.IsNaN(got) || math.Abs(got-want) > 1e-13 {
			t.Fatalf("f3DiffY(%g, %g, %g, %g) = %.17g, F3 difference %.17g", X, Ya, Yb, Z, got, want)
		}
	}
}

func TestPairLogFallback(t *testing.T) {
	// A vanished argument drops its term; a quotient outside the normal
	// range takes the two logarithms separately.
	for _, c := range []struct{ a, b, want float64 }{
		{3, 2, math.Log(1.5)},
		{0, 2, -math.Log(2)},
		{3, 0, math.Log(3)},
		{0, 0, 0},
		{1e200, 1e-200, 400 * math.Ln10},
		{1e-200, 1e200, -400 * math.Ln10},
	} {
		if got := pairLog(1, c.a, c.b); math.Abs(got-c.want) > 1e-13*math.Max(1, math.Abs(c.want)) {
			t.Errorf("pairLog(1, %g, %g) = %g, want %g", c.a, c.b, got, c.want)
		}
	}
}

var rectSink float64

func BenchmarkRectPotential(b *testing.B) {
	// Points around a unit square at the distances the near field sees.
	rng := rand.New(rand.NewSource(4))
	pts := make([][3]float64, 1024)
	for i := range pts {
		pts[i] = [3]float64{rng.Float64()*6 - 2.5, rng.Float64()*6 - 2.5, rng.Float64() * 2}
	}
	b.Run("paired", func(b *testing.B) {
		var s float64
		for i := 0; i < b.N; i++ {
			p := &pts[i&1023]
			s += RectPotential(0, 1, 0, 1, p[0], p[1], p[2])
		}
		rectSink = s
	})
	b.Run("fourF2", func(b *testing.B) {
		var s float64
		for i := 0; i < b.N; i++ {
			p := &pts[i&1023]
			s += rectPotentialRef(0, 1, 0, 1, p[0], p[1], p[2])
		}
		rectSink = s
	})
}
