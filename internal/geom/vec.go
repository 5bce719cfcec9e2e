// Package geom provides the Manhattan-geometry substrate for the boundary
// element capacitance extractor: 3-D vectors, axis-aligned rectangles
// (panels), conductors built from axis-aligned boxes, and generators for the
// benchmark structures used in the paper (crossing wire pairs, m x n bus
// crossbars, and a synthetic transistor-interconnect structure).
//
// All coordinates are in meters. The geometry is restricted to Manhattan
// (axis-aligned) shapes, matching the assumption under which instantiable
// basis functions are constructed (paper Section 2.2).
package geom

import (
	"fmt"
	"math"
)

// Axis identifies one of the three coordinate axes.
type Axis int

// The three coordinate axes.
const (
	X Axis = iota
	Y
	Z
)

// String returns the axis name ("X", "Y" or "Z").
func (a Axis) String() string {
	switch a {
	case X:
		return "X"
	case Y:
		return "Y"
	case Z:
		return "Z"
	}
	return fmt.Sprintf("Axis(%d)", int(a))
}

// Other returns the axis that is neither a nor b. a and b must differ.
func Other(a, b Axis) Axis {
	return Axis(3 - int(a) - int(b))
}

// Vec3 is a point or displacement in 3-D space.
type Vec3 struct {
	X, Y, Z float64
}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s*v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{s * v.X, s * v.Y, s * v.Z} }

// Dot returns the dot product of v and w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Dist returns the Euclidean distance between v and w.
func (v Vec3) Dist(w Vec3) float64 { return v.Sub(w).Norm() }

// Component returns the coordinate of v along axis a.
func (v Vec3) Component(a Axis) float64 {
	switch a {
	case X:
		return v.X
	case Y:
		return v.Y
	default:
		return v.Z
	}
}

// WithComponent returns a copy of v with the coordinate along axis a set to c.
func (v Vec3) WithComponent(a Axis, c float64) Vec3 {
	switch a {
	case X:
		v.X = c
	case Y:
		v.Y = c
	default:
		v.Z = c
	}
	return v
}

// Interval is a closed 1-D interval [Lo, Hi].
type Interval struct {
	Lo, Hi float64
}

// Len returns Hi - Lo.
func (iv Interval) Len() float64 { return iv.Hi - iv.Lo }

// Mid returns the midpoint of the interval.
func (iv Interval) Mid() float64 { return 0.5 * (iv.Lo + iv.Hi) }

// Overlaps reports whether the two intervals intersect (including touching).
func (iv Interval) Overlaps(o Interval) bool { return iv.Lo <= o.Hi && o.Lo <= iv.Hi }

// Intersect returns the intersection of two intervals and whether it is
// non-empty (touching intervals yield a zero-length, valid intersection).
func (iv Interval) Intersect(o Interval) (Interval, bool) {
	lo := math.Max(iv.Lo, o.Lo)
	hi := math.Min(iv.Hi, o.Hi)
	if lo > hi {
		return Interval{}, false
	}
	return Interval{lo, hi}, true
}

// DistTo returns the distance from x to the interval (0 if inside).
func (iv Interval) DistTo(x float64) float64 {
	if x < iv.Lo {
		return iv.Lo - x
	}
	if x > iv.Hi {
		return x - iv.Hi
	}
	return 0
}

// Gap returns the separation between two intervals (0 if they overlap).
func (iv Interval) Gap(o Interval) float64 {
	if iv.Overlaps(o) {
		return 0
	}
	if iv.Hi < o.Lo {
		return o.Lo - iv.Hi
	}
	return iv.Lo - o.Hi
}
