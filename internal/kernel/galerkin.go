package kernel

import (
	"math"

	"parbem/internal/geom"
	"parbem/internal/quad"
)

// FarFactor and MidFactor are the approximation distances of paper
// Section 4.1, in mean rectangle diameters (see "Approximation distances"
// in the package comment). A change to either moves kernel values, so it
// bumps ArithVersion, which every key over them carries.
const (
	FarFactor = 12
	MidFactor = 4
)

// Config is what a caller may set of the rectangle-pair integration. The
// Section 4.1 distances are not in it: no command, example or workload
// ever set them, and the reductions cost no measurable accuracy at their
// values (turning them off with DisableApprox leaves the bus ladder's
// error against a converged quadrature where it is).
type Config struct {
	// QuadOrder is the Gauss order per dimension for the outer numerical
	// integration over the target rectangle (perpendicular orientations
	// and template-weighted integrals).
	QuadOrder int

	// DisableApprox forces full-accuracy evaluation everywhere: the exact
	// reference the tests hold the Section 4.1 reductions to.
	DisableApprox bool
}

// DefaultConfig returns the production configuration: the Section 4.1
// reductions on, and a 4-point outer rule.
func DefaultConfig() *Config {
	return &Config{QuadOrder: 4}
}

// Fingerprint condenses the configuration and the arithmetic version arith
// (ArithVersion; a parameter so that a test can key values as an older
// build would have) into one word. It is the only encoding of a
// configuration: the class table's keys, the plan family keys and the
// plan artifact hashes all carry it, so that values of one configuration
// or arithmetic are never served to another. FarFactor and MidFactor are
// covered by arith.
func (c *Config) Fingerprint(arith uint64) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(arith)
	mix(uint64(c.QuadOrder))
	if c.DisableApprox {
		mix(1)
	}
	return h
}

// RectGalerkin computes int_t int_s 1/|r-r'| ds' ds for two axis-aligned
// rectangles in any Manhattan orientation, applying the approximation-
// distance dispatch unless disabled.
func RectGalerkin(cfg *Config, t, s geom.Rect) float64 {
	if !cfg.DisableApprox {
		d := t.Dist(s)
		diam := 0.5 * (t.Diameter() + s.Diameter())
		if d > FarFactor*diam {
			// Far field: both rectangles act as point charges.
			return t.Area() * s.Area() / t.Center().Dist(s.Center())
		}
		if d > MidFactor*diam {
			// Intermediate: collocate the target at its centroid
			// (2-D closed form), keep the source exact.
			return t.Area() * rectPotentialAt(s, t.Center())
		}
	}
	if t.ParallelTo(s) {
		return rectGalerkinParallel(t, s)
	}
	return rectGalerkinPerp(cfg, t, s)
}

// rectGalerkinParallel evaluates the analytic 4-D expression for rectangles
// in parallel planes (including coplanar, overlapping and identical).
func rectGalerkinParallel(t, s geom.Rect) float64 {
	Z := t.Offset - s.Offset
	return GalerkinParallel(
		t.U.Lo, t.U.Hi, t.V.Lo, t.V.Hi,
		s.U.Lo, s.U.Hi, s.V.Lo, s.V.Hi, Z)
}

// rectPotentialAt evaluates the collocation closed form of source rectangle
// s at an arbitrary 3-D point p.
func rectPotentialAt(s geom.Rect, p geom.Vec3) float64 {
	pu := p.Component(s.UAxis())
	pv := p.Component(s.VAxis())
	pz := p.Component(s.Normal) - s.Offset
	return RectPotential(s.U.Lo, s.U.Hi, s.V.Lo, s.V.Hi, pu, pv, pz)
}

// Source is a source rectangle whose potential is wanted at many points,
// with its axes resolved once. A point is its three world coordinates
// indexed by axis: a caller sweeping a target plane rewrites two of them
// per point, and nothing is dispatched on an axis in between.
type Source struct {
	r    geom.Rect
	u, v geom.Axis
}

// NewSource prepares s as a Source.
func NewSource(s geom.Rect) Source { return Source{r: s, u: s.UAxis(), v: s.VAxis()} }

// Potential is the collocation closed form of the source at p,
// int_s 1/|p-r'| ds' without the 1/(4*pi*eps) prefactor: rectPotentialAt
// on resolved axes.
func (s *Source) Potential(p *[3]float64) float64 {
	r := &s.r
	return RectPotential(r.U.Lo, r.U.Hi, r.V.Lo, r.V.Hi, p[s.u], p[s.v], p[r.Normal]-r.Offset)
}

// Collocation is Potential under the approximation-distance dispatch: a
// point in the far field sees the source as a point charge.
func (s *Source) Collocation(cfg *Config, p *[3]float64) float64 {
	if !cfg.DisableApprox {
		r := &s.r
		dn, du, dv := p[r.Normal]-r.Offset, r.U.DistTo(p[s.u]), r.V.DistTo(p[s.v])
		if math.Sqrt(dn*dn+du*du+dv*dv) > FarFactor*r.Diameter() {
			return r.Area() / r.Center().Dist(geom.Vec3{X: p[0], Y: p[1], Z: p[2]})
		}
	}
	return s.Potential(p)
}

// rectGalerkinPerp evaluates the Galerkin integral for perpendicular
// rectangles: outer tensor Gauss quadrature over the target, inner 2-D
// closed form over the source (paper Eq. 7 structure). Perpendicular
// Manhattan rectangles can touch along an edge but never overlap, so the
// integrand is at worst weakly singular along the target boundary; the
// order is bumped when the pair is close.
func rectGalerkinPerp(cfg *Config, t, s geom.Rect) float64 {
	order := cfg.QuadOrder
	d := t.Dist(s)
	diam := 0.5 * (t.Diameter() + s.Diameter())
	if d < 0.1*diam {
		order = min(order*4, quad.MaxOrder)
	} else if d < diam {
		order = min(order*2, quad.MaxOrder)
	}
	src := NewSource(s)
	tu, tv := t.UAxis(), t.VAxis()
	var p [3]float64
	p[t.Normal] = t.Offset
	return quad.Integrate2D(func(u, v float64) float64 {
		p[tu], p[tv] = u, v
		return src.Potential(&p)
	}, t.U.Lo, t.U.Hi, t.V.Lo, t.V.Hi, order, order)
}

// SelfGalerkin computes the Galerkin self-term of a rectangle: the 4-D
// integral of 1/|r-r'| over the rectangle paired with itself. The analytic
// F4 expression remains finite here; for a unit square the value is
// 8/3*(ln(1+sqrt2) + (1-sqrt2)/... ) ~= 3.5255 (verified in tests against a
// Duffy-transformed numerical reference).
func SelfGalerkin(r geom.Rect) float64 {
	return GalerkinParallel(
		r.U.Lo, r.U.Hi, r.V.Lo, r.V.Hi,
		r.U.Lo, r.U.Hi, r.V.Lo, r.V.Hi, 0)
}

// PointKernel is the bare Green's function without prefactor: 1/|a-b|.
func PointKernel(a, b geom.Vec3) float64 {
	return 1 / a.Dist(b)
}

// Scale converts an unscaled integral (in units of m^3 for 4-D Galerkin) to
// the physical coefficient by applying 1/(4*pi*eps0).
func Scale(integral float64) float64 {
	return integral / FourPiEps0
}
