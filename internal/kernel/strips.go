package kernel

import "math"

// F2Y is the double antiderivative of 1/r in Y at fixed X:
//
//	F2Y = Y*ln(Y+r) - r
//
// It backs the closed-form Galerkin pairing of the non-varying direction
// when both templates carry 1-D shape variation along the same axis.
func F2Y(X, Y, Z float64) float64 {
	x2, z2 := X*X, Z*Z
	r := math.Sqrt(x2 + Y*Y + z2)
	return logTerm(Y, plusR(Y, r, x2+z2)) - r
}

// GalerkinPair1D computes the 2-D integral
//
//	int_{t1}^{t2} int_{s1}^{s2} 1/sqrt(X^2 + (v-v')^2 + Z^2) dv' dv
//
// (Galerkin pairing of the v direction at fixed in-plane difference X and
// plane separation Z) via second differences of F2Y. It diverges
// logarithmically as (X, Z) -> 0 with overlapping intervals; callers
// integrating over X must keep quadrature nodes off X = 0 (see
// assembly.TemplatePair).
func GalerkinPair1D(t1, t2, s1, s2, X, Z float64) float64 {
	return F2Y(X, t2-s1, Z) - F2Y(X, t1-s1, Z) -
		F2Y(X, t2-s2, Z) + F2Y(X, t1-s2, Z)
}

// GalerkinStrip computes the 3-D integral
//
//	int_{tv1}^{tv2} dv int_{su1}^{su2} du' int_{sv1}^{sv2} dv' 1/|r-r'|
//
// for a target line at fixed u spanning [tv1,tv2] against a full source
// rectangle [su1,su2] x [sv1,sv2], with plane separation Z. It is the
// inner closed form when exactly one template of a parallel pair carries
// 1-D variation (paper Eq. 7 with the quadrature on the varying side).
func GalerkinStrip(tv1, tv2, sv1, sv2, su1, su2, u, Z float64) float64 {
	vs := [2]float64{tv1, tv2}
	vps := [2]float64{sv1, sv2}
	var sum float64
	for j := 0; j < 2; j++ {
		for jp := 0; jp < 2; jp++ {
			s := signPair(j, jp)
			Y := vs[j] - vps[jp]
			sum += s * f3DiffY(Y, u-su1, u-su2, Z)
		}
	}
	return sum
}

// SegPotential computes the line integral
//
//	int_{v1}^{v2} 1/sqrt((pv-v')^2 + d2) dv'
//
// of a unit line density, where d2 is the squared distance in the two
// remaining coordinates. It is the innermost closed form when the source
// template carries 1-D variation and must itself be quadratured.
//
// The antiderivative is ln(V + sqrt(V^2+d2)); the difference of the two
// endpoint substitutions is computed in a form where d2 cancels when the
// evaluation point is collinear with the segment (d2 = 0), so the result
// stays exact for all off-segment points. Points exactly on the open
// segment are true singularities and return +Inf.
func SegPotential(v1, v2, pv, d2 float64) float64 {
	V1 := pv - v1 // >= V2 for v1 < v2
	V2 := pv - v2
	r1 := math.Sqrt(V1*V1 + d2)
	r2 := math.Sqrt(V2*V2 + d2)
	switch {
	case V2 >= 0:
		// Point beyond the v2 end: both substitutions well-conditioned.
		return log((V1 + r1) / (V2 + r2))
	case V1 <= 0:
		// Point before the v1 end: use V+r = d2/(r-V); d2 cancels.
		return log((r2 - V2) / (r1 - V1))
	default:
		// Projection inside the segment: (V1+r1)(r2-V2)/d2.
		if d2 == 0 {
			return math.Inf(1)
		}
		return log((V1 + r1) * (r2 - V2) / d2)
	}
}
