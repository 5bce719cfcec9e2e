package geom

import "math"

// Rect is an axis-aligned rectangle embedded in 3-D space. It lies in the
// plane normal to Normal at offset Offset, and spans U x V in the two
// remaining axes (U is the lower-numbered in-plane axis, V the higher; e.g.
// for Normal == Z, U spans X and V spans Y).
//
// Rect is the fundamental support of both piecewise-constant panels and
// instantiable basis-function templates.
type Rect struct {
	Normal Axis
	Offset float64 // coordinate along Normal
	U, V   Interval
}

// UAxis returns the axis spanned by the U interval.
func (r Rect) UAxis() Axis {
	switch r.Normal {
	case X:
		return Y
	case Y:
		return X
	default:
		return X
	}
}

// VAxis returns the axis spanned by the V interval.
func (r Rect) VAxis() Axis {
	switch r.Normal {
	case X:
		return Z
	case Y:
		return Z
	default:
		return Y
	}
}

// Area returns the rectangle's area.
func (r Rect) Area() float64 { return r.U.Len() * r.V.Len() }

// Center returns the rectangle's centroid in 3-D.
func (r Rect) Center() Vec3 {
	var c Vec3
	c = c.WithComponent(r.Normal, r.Offset)
	c = c.WithComponent(r.UAxis(), r.U.Mid())
	c = c.WithComponent(r.VAxis(), r.V.Mid())
	return c
}

// Point maps in-plane coordinates (u, v) to a 3-D point on the rectangle's
// plane; u and v may lie outside the intervals (geom, kernel, assembly tests).
func (r Rect) Point(u, v float64) Vec3 {
	var p Vec3
	p = p.WithComponent(r.Normal, r.Offset)
	p = p.WithComponent(r.UAxis(), u)
	p = p.WithComponent(r.VAxis(), v)
	return p
}

// Diameter returns the diagonal length of the rectangle.
func (r Rect) Diameter() float64 {
	du, dv := r.U.Len(), r.V.Len()
	return math.Sqrt(du*du + dv*dv)
}

// Dist returns the Euclidean distance between the closest points of r and s.
// It is exact for axis-aligned rectangles in any relative orientation.
func (r Rect) Dist(s Rect) float64 {
	var d2 float64
	for ax := X; ax <= Z; ax++ {
		ri := r.axisExtent(ax)
		si := s.axisExtent(ax)
		g := ri.Gap(si)
		d2 += g * g
	}
	return math.Sqrt(d2)
}

// DistToPoint returns the distance from p to r (geom, kernel, assembly tests).
func (r Rect) DistToPoint(p Vec3) float64 {
	dn := p.Component(r.Normal) - r.Offset
	du := r.U.DistTo(p.Component(r.UAxis()))
	dv := r.V.DistTo(p.Component(r.VAxis()))
	return math.Sqrt(dn*dn + du*du + dv*dv)
}

// axisExtent returns the (possibly degenerate) extent of r along axis ax.
func (r Rect) axisExtent(ax Axis) Interval {
	switch ax {
	case r.Normal:
		return Interval{r.Offset, r.Offset}
	case r.UAxis():
		return r.U
	default:
		return r.V
	}
}

// Extent returns the extent of r along axis ax (degenerate along Normal).
func (r Rect) Extent(ax Axis) Interval { return r.axisExtent(ax) }

// ParallelTo reports whether r and s lie in parallel planes.
func (r Rect) ParallelTo(s Rect) bool { return r.Normal == s.Normal }

// SplitGrid subdivides the rectangle into an nu x nv grid of sub-rectangles,
// appending them to dst and returning the extended slice.
func (r Rect) SplitGrid(nu, nv int, dst []Rect) []Rect {
	du := r.U.Len() / float64(nu)
	dv := r.V.Len() / float64(nv)
	for i := 0; i < nu; i++ {
		u0 := r.U.Lo + float64(i)*du
		u1 := u0 + du
		if i == nu-1 {
			u1 = r.U.Hi
		}
		for j := 0; j < nv; j++ {
			v0 := r.V.Lo + float64(j)*dv
			v1 := v0 + dv
			if j == nv-1 {
				v1 = r.V.Hi
			}
			dst = append(dst, Rect{Normal: r.Normal, Offset: r.Offset,
				U: Interval{u0, u1}, V: Interval{v0, v1}})
		}
	}
	return dst
}

// Box is an axis-aligned 3-D box, the building block of Manhattan conductors.
type Box struct {
	Min, Max Vec3
}

// NewBox returns the box spanning the two corner points, normalizing so that
// Min <= Max component-wise.
func NewBox(a, b Vec3) Box {
	return Box{
		Min: Vec3{math.Min(a.X, b.X), math.Min(a.Y, b.Y), math.Min(a.Z, b.Z)},
		Max: Vec3{math.Max(a.X, b.X), math.Max(a.Y, b.Y), math.Max(a.Z, b.Z)},
	}
}

// Extent returns the box's interval along axis ax.
func (b Box) Extent(ax Axis) Interval {
	return Interval{b.Min.Component(ax), b.Max.Component(ax)}
}

// Center returns the box centroid.
func (b Box) Center() Vec3 { return b.Min.Add(b.Max).Scale(0.5) }

// Size returns the box dimensions.
func (b Box) Size() Vec3 { return b.Max.Sub(b.Min) }

// Faces returns the six rectangular faces of the box. Face order is
// -X, +X, -Y, +Y, -Z, +Z.
func (b Box) Faces() [6]Rect {
	var fs [6]Rect
	for i, ax := range [3]Axis{X, Y, Z} {
		u, v := faceSpan(ax)
		lo := Rect{Normal: ax, Offset: b.Min.Component(ax), U: b.Extent(u), V: b.Extent(v)}
		hi := lo
		hi.Offset = b.Max.Component(ax)
		fs[2*i] = lo
		fs[2*i+1] = hi
	}
	return fs
}

// faceSpan returns the two in-plane axes (U, V) for a face normal to ax,
// consistent with Rect.UAxis/VAxis.
func faceSpan(ax Axis) (Axis, Axis) {
	switch ax {
	case X:
		return Y, Z
	case Y:
		return X, Z
	default:
		return X, Y
	}
}
