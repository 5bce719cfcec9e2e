// Package kernel implements the closed-form integrals of the free-space
// Green's function 1/(4*pi*eps*|r-r'|) over axis-aligned rectangles, plus the
// dimension-reduction ("approximation distance") dispatch of paper Section 4.
// RectGalerkin is the one evaluator of a rectangle pair.
//
// # Approximation distances
//
// The Section 4.1 dispatch compares a pair's separation with its mean
// diameter: beyond FarFactor = 12 the pair is two point charges, beyond
// MidFactor = 4 the target collocates at its centroid, and nearer pairs
// get the closed forms of Section 4.2 (parallel) or an outer Gauss rule
// over the target (perpendicular: order QuadOrder, doubled under one mean
// diameter, quadrupled under a tenth of one). The two distances are
// constants, not settings: no caller ever set them, and they cost no
// measurable accuracy at these values. Config holds what a caller may set,
// QuadOrder and DisableApprox (the exact reference), and
// Config.Fingerprint is the one encoding of it that keys over kernel
// values carry.
//
// Naming follows the paper: the definite integrals are obtained by applying
// finite-difference operators to indefinite antiderivatives:
//
//	F1(X,Y,Z) = d/dX-antiderivative of 1/r              (collocation, 1 dim)
//	F2(X,Y,Z) = dX dY antiderivative of 1/r             (collocation over a rect)
//	F3(X,Y,Z) = dX dX dY antiderivative of 1/r          (a line against a rectangle, GalerkinStrip)
//	F4(X,Y,Z) = dX dX dY dY antiderivative of 1/r       (Galerkin over parallel rects)
//
// where X = x - x', Y = y - y', Z = z - z' and r = sqrt(X^2+Y^2+Z^2).
// All functions here omit the 1/(4*pi*eps) prefactor; callers scale.
//
// # Arithmetic
//
// The cost of these expressions is their elementary functions, the
// logarithm first (paper Section 4.2.3). There is one arithmetic, named by
// ArithVersion: math.Atan, math.Atan2 and a logarithm of the package's own.
//
// The logarithm is the paper's table indexed by the leading mantissa bits
// of the IEEE-754 representation, taken to double accuracy. x > 0 is split
// as 2^k * z with z in [0.6855, 1.3711), and the top seven mantissa bits
// of z (counted from the lower end of that range) pick one of 128
// intervals, each with a tabulated reciprocal 1/c of a point c near its
// middle and ln c: 2 KB in all. Then
//
//	ln x = k ln2 + ln c + ln(1+r),   r = z/c - 1,   |r| <= 2^-8,
//
// with r from one fused multiply-add (math.FMA: exact on every host, in
// software where the instruction is missing), ln(1+r) from its series
// through r^7, and the leading terms summed in two doubles. ln c is stored
// rounded to a multiple of 2^-43, as is the high part of ln2, so their sum
// with k is exact, and each c is the double near the midpoint whose
// logarithm falls within 2^-61 of that grid, relative to itself. The
// interval containing 1 has c = 1: there r = x - 1 exactly and the series
// alone gives ln x to relative accuracy, with no special case for arguments
// near 1. The error is below one ulp (0.73 at worst over the tests'
// samples): half an ulp of final rounding, 2^-59 of the result from the
// series, and the rounding of r, which reaches half an ulp just outside
// the middle interval, where |ln x| is 2^-8, and falls off as 2^-9/|ln x|.
// Zero, negative, subnormal, infinite and NaN arguments go to math.Log.
//
// Corners of a finite difference whose logarithms share a coefficient are
// evaluated as one logarithm of a quotient (pairLog): RectPotential takes
// four logs for its eight log terms, the Y-difference of F3 three for
// four. The quotients are safe because every log argument is a plusR
// value: X + r computed without cancellation, positive to full relative
// accuracy except on the singular line where it vanishes — and there the
// term's coefficient vanishes with it and the term is dropped. The
// quotient of two such arguments is a positive normal number good to an
// ulp, and its logarithm carries an absolute error near 1e-16 where the
// difference of two logarithms of lengths carries an ulp of each.
package kernel

import "math"

// Eps0 is the vacuum permittivity in F/m.
const Eps0 = 8.8541878128e-12

// FourPi is 4*pi.
const FourPi = 4 * math.Pi

// eps0 is Eps0 as a float64 variable, so that FourPiEps0 is the rounded
// float64 product 4*pi * eps0 that the system scaling has always divided
// by, not the exactly folded constant, which lies 1 ulp away.
var eps0 float64 = Eps0

// FourPiEps0 is 4*pi*Eps0, the one permittivity prefactor: a uniform
// dielectric would only multiply the capacitance matrix by its eps_r.
var FourPiEps0 = FourPi * eps0

// ArithVersion names the arithmetic behind every value this package
// returns (the logarithm, the pairing of corners). It is part of every
// content-addressed key over kernel values — class tables, plan artifacts
// on disk, plan family keys — and must change with any edit that can move
// a result by even one bit, so that values of one arithmetic are never
// adopted by another. 1 and 2 were the two
// elementary-function providers of the releases before it existed.
const ArithVersion = 3

// eps guards terms whose coefficient vanishes at a singular point of the
// antiderivative (e.g. coefficient * log(0)); any coefficient smaller than
// this times the local scale is treated as exactly zero.
const coefEps = 1e-300

// plusR returns X + r computed without catastrophic cancellation: for X < 0
// it uses the identity X + r = (r^2 - X^2)/(r - X) = other2/(r - X), where
// other2 is the sum of the squares of the remaining coordinates.
func plusR(X, r, other2 float64) float64 {
	if X >= 0 {
		return X + r
	}
	return other2 / (r - X)
}

// logTerm returns c*ln(a) for a plusR value a (never negative), zero where
// the coefficient or the argument vanishes: the term's limit there.
func logTerm(c, a float64) float64 {
	if math.Abs(c) > coefEps && a > 0 {
		return c * log(a)
	}
	return 0
}

// pairLog returns c*(ln a - ln b), the log terms of two corners of a finite
// difference that share the coefficient c, through one logarithm of the
// quotient. A vanished argument, or a quotient outside the normal range,
// falls back to the two terms taken separately.
func pairLog(c, a, b float64) float64 {
	if q := a / b; math.Abs(c) > coefEps && q >= minNormal && q <= math.MaxFloat64 {
		return c * log(q)
	}
	return logTerm(c, a) - logTerm(c, b)
}

// minNormal is the smallest positive normal float64.
const minNormal = 0x1p-1022

// cornerAtan is the atan(X*Y/(Z*r)) of one corner of F2, zero where the
// denominator vanishes.
func cornerAtan(xy, zr float64) float64 {
	if math.Abs(zr) > coefEps {
		return math.Atan(xy / zr)
	}
	return 0
}

// F2 is the double antiderivative of 1/r in X and Y:
//
//	F2 = X*ln(Y+r) + Y*ln(X+r) - Z*atan(X*Y/(Z*r))
//
// Singularity guards: each term is dropped when its coefficient vanishes
// (the corresponding limit is zero).
func F2(X, Y, Z float64) float64 {
	x2, y2, z2 := X*X, Y*Y, Z*Z
	r := math.Sqrt(x2 + y2 + z2)
	s := logTerm(X, plusR(Y, r, x2+z2)) + logTerm(Y, plusR(X, r, y2+z2))
	if math.Abs(Z) > coefEps {
		s -= Z * cornerAtan(X*Y, Z*r)
	}
	return s
}

// f3Rest is F3 less its (X^2-Z^2)/2*ln(Y+r) term, whose coefficient does
// not depend on Y; yr is that logarithm's guarded argument.
func f3Rest(X, Y, Z float64) (s, yr float64) {
	x2, y2, z2 := X*X, Y*Y, Z*Z
	r := math.Sqrt(x2 + y2 + z2)
	s = logTerm(X*Y, plusR(X, r, y2+z2))
	if c := X * Z; math.Abs(c) > coefEps {
		s += c * math.Atan2(Y*Z, x2+z2+X*r)
	}
	s += -X*Y - 0.5*Y*r
	return s, plusR(Y, r, x2+z2)
}

// f3DiffY returns F3(X, Ya, Z) - F3(X, Yb, Z), the single difference in Y
// of the mixed closed forms, with the two logarithms that share the
// coefficient (X^2-Z^2)/2 taken as one: three logs, not four.
func f3DiffY(X, Ya, Yb, Z float64) float64 {
	sa, ya := f3Rest(X, Ya, Z)
	sb, yb := f3Rest(X, Yb, Z)
	return sa - sb + pairLog(0.5*(X*X-Z*Z), ya, yb)
}

// F4 is the double antiderivative of 1/r in both X and Y:
//
//	F4 = X*(Y^2-Z^2)/2*ln(X+r) + Y*(X^2-Z^2)/2*ln(Y+r)
//	   + X*Y*Z*atan2(Y*Z, X^2+Z^2+X*r)
//	   + r*(2*Z^2-X^2-Y^2)/6
//
// The branch-continuous atan2 form is essential: the plain atan argument's
// denominator X^2+Z^2+X*r crosses zero for X < 0, and the resulting pi-jump
// would corrupt the 16-corner finite difference. (A term -3*X*Y^2/4 in the
// raw antiderivative is linear in X and is annihilated by the
// second-difference operator, so it is omitted; this also reduces
// floating-point cancellation.)
func F4(X, Y, Z float64) float64 {
	x2, y2, z2 := X*X, Y*Y, Z*Z
	r := math.Sqrt(x2 + y2 + z2)
	s := logTerm(0.5*X*(y2-z2), plusR(X, r, y2+z2)) + logTerm(0.5*Y*(x2-z2), plusR(Y, r, x2+z2))
	if c := X * Y * Z; math.Abs(c) > coefEps {
		s += c * math.Atan2(Y*Z, x2+z2+X*r)
	}
	s += r * (2*z2 - x2 - y2) / 6
	return s
}

// RectPotential computes the collocation integral
//
//	int_{u1}^{u2} int_{v1}^{v2} 1/|r - r'| du' dv'
//
// for a rectangle in the plane Z=0 spanning [u1,u2] x [v1,v2], evaluated at
// the point (pu, pv, pz). This is the inner closed form of paper Eq. (7),
// the second difference of F2 over the four corners
//
//	F2(X1,Y1) - F2(X2,Y1) - F2(X1,Y2) + F2(X2,Y2),  Xi = pu-ui, Yj = pv-vj,
//
// with each corner's r computed once and the two corners that share a log
// coefficient paired, X1*ln((Y1+r11)/(Y2+r12)) and so on: four logarithms
// and four quotients for the paper's "4 corners x 2 log terms", under F2's
// guards.
func RectPotential(u1, u2, v1, v2, pu, pv, pz float64) float64 {
	X1, X2, Y1, Y2, Z := pu-u1, pu-u2, pv-v1, pv-v2, pz
	x1, x2, y1, y2, z2 := X1*X1, X2*X2, Y1*Y1, Y2*Y2, Z*Z
	r11 := math.Sqrt(x1 + y1 + z2)
	r21 := math.Sqrt(x2 + y1 + z2)
	r12 := math.Sqrt(x1 + y2 + z2)
	r22 := math.Sqrt(x2 + y2 + z2)
	s := pairLog(X1, plusR(Y1, r11, x1+z2), plusR(Y2, r12, x1+z2)) -
		pairLog(X2, plusR(Y1, r21, x2+z2), plusR(Y2, r22, x2+z2)) +
		pairLog(Y1, plusR(X1, r11, y1+z2), plusR(X2, r21, y1+z2)) -
		pairLog(Y2, plusR(X1, r12, y2+z2), plusR(X2, r22, y2+z2))
	if math.Abs(Z) > coefEps {
		s -= Z * (cornerAtan(X1*Y1, Z*r11) - cornerAtan(X2*Y1, Z*r21) -
			cornerAtan(X1*Y2, Z*r12) + cornerAtan(X2*Y2, Z*r22))
	}
	return s
}

// GalerkinParallel computes the 4-D Galerkin integral
//
//	int_t int_s 1/|r - r'| ds' ds
//
// between two axis-aligned rectangles lying in parallel planes separated by
// Z: target [tx1,tx2] x [ty1,ty2], source [sx1,sx2] x [sy1,sy2]. This is the
// "more than 100 terms" 4-D analytical expression of the paper (16 corner
// combinations x up to 4 terms each, plus guards). It remains finite for
// touching, overlapping and coincident rectangles (including the Z=0
// self-term), thanks to the singularity guards in F4.
func GalerkinParallel(tx1, tx2, ty1, ty2, sx1, sx2, sy1, sy2, Z float64) float64 {
	xs := [2]float64{tx1, tx2}
	xps := [2]float64{sx1, sx2}
	ys := [2]float64{ty1, ty2}
	yps := [2]float64{sy1, sy2}
	var sum float64
	for i := 0; i < 2; i++ {
		for ip := 0; ip < 2; ip++ {
			sx := signPair(i, ip)
			X := xs[i] - xps[ip]
			for j := 0; j < 2; j++ {
				for jp := 0; jp < 2; jp++ {
					s := sx * signPair(j, jp)
					Y := ys[j] - yps[jp]
					sum += s * F4(X, Y, Z)
				}
			}
		}
	}
	return sum
}

// signPair returns the second-difference sign for endpoint indices
// (i over the target interval, ip over the source interval):
// +1 when i != ip, -1 when i == ip.
func signPair(i, ip int) float64 {
	if i == ip {
		return -1
	}
	return 1
}
