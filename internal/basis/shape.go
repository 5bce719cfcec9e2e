// Package basis implements instantiable basis functions (paper Section 2.2
// and reference [3]): compact solution representations assembled from
// "flat" and "arch" templates instantiated near wire intersections, plus
// the per-face constant basis functions.
//
// A basis function psi_i' is a fixed linear combination of one or more
// templates psi_{i',ibar}; the template list is flattened and relabeled
// 1..M for the balanced work division of paper Section 3, with the owner
// array l mapping each template back to its basis function (Figure 3).
package basis

import (
	"math"

	"parbem/internal/geom"
)

// Shape is a 1-D profile on [0, 1] (the normalized varying coordinate of a
// template). Shapes must be bounded and piecewise-smooth; Mean is the exact
// integral over [0, 1], used for far-field moments and for the
// potential-matching right-hand side.
type Shape interface {
	Eval(t float64) float64
	Mean() float64
	// FirstMoment is the exact integral of t*Eval(t) over [0, 1]; the
	// shape's centroid is FirstMoment()/Mean(). Far- and mid-field
	// approximations place the template's charge at its centroid, which
	// matters for strongly asymmetric shapes like arches.
	FirstMoment() float64
}

// Breakpointer is implemented by shapes with an interior derivative kink;
// quadrature engines split integration intervals at the reported
// (normalized) position to retain spectral convergence. The scalar return
// keeps the hot integration path allocation-free.
type Breakpointer interface {
	Breakpoint() (t float64, ok bool)
}

// FlatShape is the constant profile of value 1: both the face basis
// functions and the flat templates of induced basis functions use it.
type FlatShape struct{}

// Eval implements Shape.
func (FlatShape) Eval(float64) float64 { return 1 }

// Mean implements Shape.
func (FlatShape) Mean() float64 { return 1 }

// FirstMoment implements Shape.
func (FlatShape) FirstMoment() float64 { return 0.5 }

// ArchShape is the arch profile A_p(u) of paper Figure 2, in normalized
// coordinates: the support [0, 1] maps geometrically from the inside of the
// crossing shadow (t = 0, "ingrowing" end) across the shadow edge at
// t = EdgePos to the outer "extension" end (t = 1). The profile rises
// exponentially toward the shadow edge and decays beyond it:
//
//	A(t) = exp(-(EdgePos-t)/LambdaIn)   for t <= EdgePos
//	A(t) = exp(-(t-EdgePos)/LambdaOut)  for t >  EdgePos
//
// The peak value is 1; the solved coefficient carries the physical
// amplitude b(h). Decay lengths are normalized to the support length.
type ArchShape struct {
	EdgePos   float64 // shadow-edge position in [0,1]
	LambdaIn  float64 // ingrowing decay length (normalized)
	LambdaOut float64 // extension decay length (normalized)
}

// Eval implements Shape.
func (a ArchShape) Eval(t float64) float64 {
	if t <= a.EdgePos {
		return math.Exp(-(a.EdgePos - t) / a.LambdaIn)
	}
	return math.Exp(-(t - a.EdgePos) / a.LambdaOut)
}

// Mean implements Shape (exact integral of the two exponential branches).
func (a ArchShape) Mean() float64 {
	in := a.LambdaIn * (1 - math.Exp(-a.EdgePos/a.LambdaIn))
	out := a.LambdaOut * (1 - math.Exp(-(1-a.EdgePos)/a.LambdaOut))
	return in + out
}

// FirstMoment implements Shape: the exact integral of t*A(t), from
// antiderivatives of t*exp(+-t/lambda) on the two branches.
func (a ArchShape) FirstMoment() float64 {
	e, li, lo := a.EdgePos, a.LambdaIn, a.LambdaOut
	// Rising branch: int_0^e t*exp(-(e-t)/li) dt = e*li - li^2 + li^2*exp(-e/li).
	in := e*li - li*li + li*li*math.Exp(-e/li)
	// Falling branch: int_e^1 t*exp(-(t-e)/lo) dt with a = 1-e:
	// e*lo*(1-exp(-a/lo)) + lo^2 - exp(-a/lo)*(lo*a + lo^2).
	aa := 1 - e
	ex := math.Exp(-aa / lo)
	out := e*lo*(1-ex) + lo*lo - ex*(lo*aa+lo*lo)
	return in + out
}

// Breakpoint implements Breakpointer: the profile kinks at the shadow
// edge.
func (a ArchShape) Breakpoint() (float64, bool) {
	if a.EdgePos <= 0 || a.EdgePos >= 1 {
		return 0, false
	}
	return a.EdgePos, true
}

// VaryDir identifies which in-plane direction of a template's support
// rectangle carries the 1-D shape variation.
type VaryDir int

// Template shape-variation directions.
const (
	VaryNone VaryDir = iota // constant template
	VaryU                   // shape varies along the support's U axis
	VaryV                   // shape varies along the support's V axis
)

// Template is one instantiated shape on a rectangular support. Amplitude
// scales the shape within its owning basis function (relative weights
// between a basis function's templates are fixed at instantiation; the
// global coefficient is solved for).
type Template struct {
	Support   geom.Rect
	Dir       VaryDir
	Shape     Shape
	Amplitude float64
}

// Moment returns the integral of the template over its support.
func (t *Template) Moment() float64 {
	mean := 1.0
	if t.Dir != VaryNone {
		mean = t.Shape.Mean()
	}
	return t.Amplitude * mean * t.Support.Area()
}

// IsFlat reports whether the template is constant over its support.
func (t *Template) IsFlat() bool { return t.Dir == VaryNone }

// Centroid returns the charge centroid of the template: the support center
// shifted along the varying direction to the shape's weighted mean
// position. Far- and mid-field approximations must use this point rather
// than the support center for asymmetric shapes.
func (t *Template) Centroid() geom.Vec3 {
	c := t.Support.Center()
	if t.Dir == VaryNone {
		return c
	}
	tc := t.Shape.FirstMoment() / t.Shape.Mean() // in [0, 1]
	switch t.Dir {
	case VaryU:
		u := t.Support.U.Lo + tc*t.Support.U.Len()
		return c.WithComponent(t.Support.UAxis(), u)
	default:
		v := t.Support.V.Lo + tc*t.Support.V.Len()
		return c.WithComponent(t.Support.VAxis(), v)
	}
}

func normCoord(x float64, iv geom.Interval) float64 {
	return (x - iv.Lo) / iv.Len()
}
