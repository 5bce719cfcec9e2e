package kernel

import (
	"math"
	"testing"

	"parbem/internal/quad"
)

func TestGalerkinPair1DAgainstQuadrature(t *testing.T) {
	cases := []struct{ t1, t2, s1, s2, X, Z float64 }{
		{0, 1, 0, 1, 0.5, 0.3},
		{0, 2, 1, 3, 1.0, 0.0},
		{-1, 1, 2, 4, 0.2, 0.7},
		{0, 1, 0, 1, 2.0, 0.0},
	}
	for _, c := range cases {
		got := GalerkinPair1D(c.t1, c.t2, c.s1, c.s2, c.X, c.Z)
		want := quad.Integrate2D(func(v, vp float64) float64 {
			d := v - vp
			return 1 / math.Sqrt(c.X*c.X+d*d+c.Z*c.Z)
		}, c.t1, c.t2, c.s1, c.s2, 32, 32)
		if rel := math.Abs(got-want) / math.Abs(want); rel > 1e-8 {
			t.Errorf("GalerkinPair1D(%+v) = %g want %g (rel %g)", c, got, want, rel)
		}
	}
}

func TestGalerkinStripAgainstQuadrature(t *testing.T) {
	cases := []struct{ tv1, tv2, sv1, sv2, su1, su2, u, Z float64 }{
		{0, 1, 0, 1, 0, 1, 0.5, 0.4},  // directly above source
		{0, 1, 1, 2, -1, 0.5, 2.0, 0}, // coplanar, u outside source
		{0, 2, 0.5, 1, 0, 3, 1.7, 0},  // coplanar, u inside source range
		{-1, 0, 1, 2, 0, 1, -0.3, 1},  // offset plane
	}
	for _, c := range cases {
		got := GalerkinStrip(c.tv1, c.tv2, c.sv1, c.sv2, c.su1, c.su2, c.u, c.Z)
		// Reference: 1-D quadrature over v of the independently verified
		// RectPotential closed form, with the integration split at the
		// source's v bounds where the integrand kinks (the naive 3-D
		// brute quadrature is inaccurate when the target line crosses
		// the source rectangle).
		f := func(v float64) float64 {
			return RectPotential(c.su1, c.su2, c.sv1, c.sv2, c.u, v, c.Z)
		}
		splits := []float64{c.tv1}
		for _, brk := range []float64{c.sv1, c.sv2} {
			if brk > c.tv1 && brk < c.tv2 {
				splits = append(splits, brk)
			}
		}
		splits = append(splits, c.tv2)
		var want float64
		for i := 0; i+1 < len(splits); i++ {
			want += quad.Integrate1D(f, splits[i], splits[i+1], 32)
		}
		if rel := math.Abs(got-want) / math.Abs(want); rel > 1e-6 {
			t.Errorf("GalerkinStrip(%+v) = %g want %g (rel %g)", c, got, want, rel)
		}
	}
}

func TestSegPotential(t *testing.T) {
	ref := func(v1, v2, pv, d2 float64) float64 {
		return quad.Integrate1D(func(v float64) float64 {
			d := pv - v
			return 1 / math.Sqrt(d*d+d2)
		}, v1, v2, 32)
	}
	cases := []struct{ v1, v2, pv, d2 float64 }{
		{0, 1, 2, 0.5},  // beyond upper end
		{0, 1, -1, 0.5}, // before lower end
		{0, 1, 0.5, 1},  // above the middle
		{0, 1, 3, 0},    // collinear beyond (d2 = 0)
		{0, 1, -2, 0},   // collinear before (d2 = 0)
	}
	for _, c := range cases {
		got := SegPotential(c.v1, c.v2, c.pv, c.d2)
		want := ref(c.v1, c.v2, c.pv, c.d2)
		if rel := math.Abs(got-want) / math.Abs(want); rel > 1e-10 {
			t.Errorf("SegPotential(%+v) = %g want %g", c, got, want)
		}
	}
	// Exactly on the open segment: divergent.
	if got := SegPotential(0, 1, 0.5, 0); !math.IsInf(got, 1) {
		t.Errorf("on-segment SegPotential = %g, want +Inf", got)
	}
	// Collinear symmetric identity: potential at pv beyond v2 equals
	// potential at mirrored point before v1.
	a := SegPotential(0, 1, 1.75, 0)
	b := SegPotential(0, 1, -0.75, 0)
	if math.Abs(a-b) > 1e-12 {
		t.Errorf("collinear mirror symmetry broken: %g vs %g", a, b)
	}
}

func TestF2YDerivativeProperty(t *testing.T) {
	// Numerically check that d^2 F2Y / dY^2 = 1/r.
	h := 1e-5
	for _, p := range [][3]float64{{1, 0.5, 0.3}, {0.2, -1, 0.7}, {2, 2, 0}} {
		X, Y, Z := p[0], p[1], p[2]
		d2 := (F2Y(X, Y+h, Z) - 2*F2Y(X, Y, Z) + F2Y(X, Y-h, Z)) / (h * h)
		want := 1 / math.Sqrt(X*X+Y*Y+Z*Z)
		if rel := math.Abs(d2-want) / want; rel > 1e-4 {
			t.Errorf("F2Y'' at %v = %g want %g", p, d2, want)
		}
	}
}
