package kernel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"parbem/internal/geom"
)

// clampRange maps an arbitrary float into [lo, hi].
func clampRange(x, lo, hi float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return lo
	}
	return lo + math.Mod(math.Abs(x), hi-lo)
}

func TestF2SecondMixedDerivativeProperty(t *testing.T) {
	// d^2 F2 / dX dY == 1/r away from singular lines.
	f := func(xr, yr, zr float64) bool {
		X := clampRange(xr, 0.3, 3)
		Y := clampRange(yr, 0.3, 3)
		Z := clampRange(zr, 0.3, 3)
		h := 1e-5
		mixed := (F2(X+h, Y+h, Z) - F2(X+h, Y-h, Z) -
			F2(X-h, Y+h, Z) + F2(X-h, Y-h, Z)) / (4 * h * h)
		want := 1 / math.Sqrt(X*X+Y*Y+Z*Z)
		return math.Abs(mixed-want)/want < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestF4FourthMixedDerivativeProperty(t *testing.T) {
	// d^4 F4 / dX^2 dY^2 == 1/r (the defining property of the Galerkin
	// antiderivative), via nested central differences.
	f := func(xr, yr, zr float64) bool {
		X := clampRange(xr, 0.5, 2.5)
		Y := clampRange(yr, 0.5, 2.5)
		Z := clampRange(zr, 0.5, 2.5)
		h := 2e-3
		d2x := func(x, y float64) float64 {
			return (F4(x+h, y, Z) - 2*F4(x, y, Z) + F4(x-h, y, Z)) / (h * h)
		}
		mixed := (d2x(X, Y+h) - 2*d2x(X, Y) + d2x(X, Y-h)) / (h * h)
		want := 1 / math.Sqrt(X*X+Y*Y+Z*Z)
		return math.Abs(mixed-want)/want < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestRectPotentialPositiveAndDecaying(t *testing.T) {
	// The potential of a positive charge sheet is positive everywhere
	// and decays along rays away from the rectangle.
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		w := 0.2 + rng.Float64()*2
		h := 0.2 + rng.Float64()*2
		px := rng.Float64()*8 - 4
		py := rng.Float64()*8 - 4
		pz := rng.Float64()*4 + 0.1
		v1 := RectPotential(0, w, 0, h, px, py, pz)
		if v1 <= 0 {
			t.Fatalf("potential %g <= 0 at (%g,%g,%g)", v1, px, py, pz)
		}
		v2 := RectPotential(0, w, 0, h, px, py, pz*2)
		if v2 >= v1 {
			t.Fatalf("potential not decaying in z: %g -> %g", v1, v2)
		}
	}
}

func TestGalerkinDecaysWithSeparation(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 200; i++ {
		w := 0.5 + rng.Float64()
		prev := math.Inf(1)
		for _, z := range []float64{0.5, 1, 2, 4, 8} {
			v := GalerkinParallel(0, w, 0, w, 0, w, 0, w, z)
			if v <= 0 || v >= prev {
				t.Fatalf("Galerkin not positive-decaying: %g at z=%g (prev %g)", v, z, prev)
			}
			prev = v
		}
	}
}

func TestGalerkinTranslationInvariance(t *testing.T) {
	f := func(dxr, dyr float64) bool {
		dx := clampRange(dxr, -5, 5)
		dy := clampRange(dyr, -5, 5)
		a := GalerkinParallel(0, 1, 0, 1, 2, 3, 0, 1, 1.5)
		b := GalerkinParallel(dx, 1+dx, dy, 1+dy, 2+dx, 3+dx, dy, 1+dy, 1.5)
		return math.Abs(a-b) < 1e-9*math.Abs(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGalerkinScaleInvariance(t *testing.T) {
	// The 4-D integral of 1/r scales as length^3.
	f := func(sr float64) bool {
		s := clampRange(sr, 0.1, 10)
		a := GalerkinParallel(0, 1, 0, 2, 0.5, 2, -1, 1, 0.8)
		b := GalerkinParallel(0, s, 0, 2*s, 0.5*s, 2*s, -s, s, 0.8*s)
		return math.Abs(b-a*s*s*s) < 1e-9*math.Abs(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRectGalerkinOrientationConsistency(t *testing.T) {
	// The same physical pair expressed with different normal axes must
	// give the same integral (X-normal planes vs Z-normal planes).
	cfg := DefaultConfig()
	cfg.DisableApprox = true
	// Pair 1: both rects normal to Z, separated in z.
	a1 := geom.Rect{Normal: geom.Z, Offset: 0,
		U: geom.Interval{Lo: 0, Hi: 1}, V: geom.Interval{Lo: 0, Hi: 2}}
	b1 := geom.Rect{Normal: geom.Z, Offset: 1.3,
		U: geom.Interval{Lo: 0.2, Hi: 1.7}, V: geom.Interval{Lo: -1, Hi: 0.5}}
	// Same pair rotated: normals X; (x,y,z) -> (z,x,y) mapping.
	a2 := geom.Rect{Normal: geom.X, Offset: 0,
		U: geom.Interval{Lo: 0, Hi: 1}, V: geom.Interval{Lo: 0, Hi: 2}}
	b2 := geom.Rect{Normal: geom.X, Offset: 1.3,
		U: geom.Interval{Lo: 0.2, Hi: 1.7}, V: geom.Interval{Lo: -1, Hi: 0.5}}
	v1 := RectGalerkin(cfg, a1, b1)
	v2 := RectGalerkin(cfg, a2, b2)
	if math.Abs(v1-v2) > 1e-12*math.Abs(v1) {
		t.Fatalf("orientation-dependent result: %g vs %g", v1, v2)
	}
}

func TestSelfGalerkinScalesAsCube(t *testing.T) {
	base := SelfGalerkin(geom.Rect{Normal: geom.Z,
		U: geom.Interval{Lo: 0, Hi: 1}, V: geom.Interval{Lo: 0, Hi: 1}})
	f := func(sr float64) bool {
		s := clampRange(sr, 0.05, 20)
		v := SelfGalerkin(geom.Rect{Normal: geom.Z,
			U: geom.Interval{Lo: 0, Hi: s}, V: geom.Interval{Lo: 0, Hi: s}})
		return math.Abs(v-base*s*s*s) < 1e-9*v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
