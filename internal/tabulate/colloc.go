package tabulate

import (
	"fmt"
	"math"

	"parbem/internal/geom"
	"parbem/internal/kernel"
)

// CollocationSpec sizes the normalized rectangle-collocation table.
type CollocationSpec struct {
	// AspectMin is the smallest tabulated aspect ratio short/long side;
	// thinner rectangles fall back to the closed form. Default 1/8.
	AspectMin float64
	// Range is the largest |coordinate| (in units of the long side)
	// covered around the rectangle. Default 4 — beyond it the evaluation
	// falls back to the closed form (far pairs never reach the table at
	// all: the approximation-distance dispatch short-circuits them
	// first, which is what keeps the domain small enough to tabulate;
	// paper Section 4.2.1).
	Range float64
	// ZGate rejects evaluation points closer to the rectangle plane than
	// this (normalized): the potential kinks across the plane, where
	// multilinear interpolation is weakest. Default 0.15.
	ZGate float64
	// NH, NX, NY, NZ are the grid sizes per dimension. Defaults
	// (8, 48, 48, 24) keep the interpolation error of the supported
	// domain below about one percent at a ~3 MB footprint.
	NH, NX, NY, NZ int
}

// withDefaults fills zero fields.
func (s CollocationSpec) withDefaults() CollocationSpec {
	if s.AspectMin == 0 {
		s.AspectMin = 1.0 / 8
	}
	if s.Range == 0 {
		s.Range = 4
	}
	if s.ZGate == 0 {
		s.ZGate = 0.15
	}
	if s.NH == 0 {
		s.NH = 8
	}
	if s.NX == 0 {
		s.NX = 48
	}
	if s.NY == 0 {
		s.NY = 48
	}
	if s.NZ == 0 {
		s.NZ = 24
	}
	return s
}

// Key returns a canonical cache key for the spec (used by the batch
// engine's table cache).
func (s CollocationSpec) Key() [8]float64 {
	s = s.withDefaults()
	return [8]float64{s.AspectMin, s.Range, s.ZGate,
		float64(s.NH), float64(s.NX), float64(s.NY), float64(s.NZ), 0}
}

// Validate rejects specs the table builder cannot tabulate (it would
// panic): non-positive domain parameters or grid dimensions of fewer
// than two points. Zero fields are fine — they take defaults.
func (s CollocationSpec) Validate() error {
	d := s.withDefaults()
	if d.AspectMin <= 0 || d.AspectMin > 1 {
		return fmt.Errorf("tabulate: AspectMin %g outside (0, 1]", d.AspectMin)
	}
	if d.Range <= 0 {
		return fmt.Errorf("tabulate: Range %g must be positive", d.Range)
	}
	if d.ZGate < 0 || d.ZGate > d.Range {
		return fmt.Errorf("tabulate: ZGate %g outside [0, Range]", d.ZGate)
	}
	for _, n := range [...]struct {
		name string
		v    int
	}{{"NH", d.NH}, {"NX", d.NX}, {"NY", d.NY}, {"NZ", d.NZ}} {
		if n.v < 2 {
			return fmt.Errorf("tabulate: grid size %s = %d, need >= 2", n.name, n.v)
		}
	}
	return nil
}

// Fingerprint hashes the spec into a single word; two tables with equal
// fingerprints interpolate the same grid. The pair-integral cache folds
// it into its keys so values computed under different tables (or none)
// never alias.
func (s CollocationSpec) Fingerprint() uint64 {
	h := uint64(14695981039346656037)
	for _, f := range s.Key() {
		h ^= math.Float64bits(f)
		h *= 1099511628211
	}
	return h
}

// Fingerprint returns the built table's spec fingerprint.
func (c *Collocation) Fingerprint() uint64 { return c.spec.Fingerprint() }

// Collocation is the direct tabulation (paper Section 4.2.1) of the
// rectangle collocation potential
//
//	g(h, x, y, z) = int_0^1 int_0^h 1 / |(x,y,z) - (x',y',0)| dy' dx'
//
// in coordinates normalized by the rectangle's long side. One table
// serves every rectangle-point pair whose normalized parameters fall in
// the tabulated domain: the general evaluation translates, permutes and
// mirrors the query onto the canonical octant (x <= 1/2, y <= h/2,
// z >= 0) and scales the result by the long side. Out-of-domain queries
// report ok = false and the caller falls back to the closed form, so the
// table is a pure acceleration with bounded, testable interpolation
// error.
type Collocation struct {
	spec CollocationSpec
	tab  *Table
}

// NewCollocation builds the table (prod of grid sizes closed-form kernel
// evaluations; the batch engine caches the result across extractions).
func NewCollocation(spec CollocationSpec) *Collocation {
	s := spec.withDefaults()
	dims := []Dim{
		{Min: s.AspectMin, Max: 1, N: s.NH},
		{Min: -s.Range, Max: 0.5, N: s.NX},
		{Min: -s.Range, Max: 0.5, N: s.NY},
		{Min: 0, Max: s.Range, N: s.NZ},
	}
	t := Build(dims, func(p []float64) float64 {
		return kernel.RectPotential(0, 1, 0, p[0], p[1], p[2], p[3])
	})
	return &Collocation{spec: s, tab: t}
}

// Bytes returns the table memory footprint.
func (c *Collocation) Bytes() int { return c.tab.Bytes() }

// EvalCoords evaluates the collocation potential of the rectangle
// [u1,u2] x [v1,v2] (in its own plane coordinates) at the point
// (pu, pv, pz), pz measured from the plane. ok is false when the
// normalized query leaves the tabulated domain and the caller must use
// the closed form.
func (c *Collocation) EvalCoords(u1, u2, v1, v2, pu, pv, pz float64) (v float64, ok bool) {
	w := u2 - u1
	h := v2 - v1
	x := pu - u1
	y := pv - v1
	if h > w {
		// Canonical orientation: U is the long side (the integral is
		// symmetric under swapping the two in-plane axes).
		w, h = h, w
		x, y = y, x
	}
	if w <= 0 {
		return 0, false
	}
	inv := 1 / w
	hn := h * inv
	if hn < c.spec.AspectMin {
		return 0, false
	}
	x *= inv
	y *= inv
	z := math.Abs(pz) * inv
	if z < c.spec.ZGate {
		return 0, false
	}
	// Mirror onto the canonical octant: the potential is symmetric about
	// the rectangle's in-plane center lines.
	if x > 0.5 {
		x = 1 - x
	}
	if y > 0.5*hn {
		y = hn - y
	}
	r := c.spec.Range
	if x < -r || y < -r || z > r {
		return 0, false
	}
	return w * c.tab.Eval4(hn, x, y, z), true
}

// EvalRect evaluates the collocation potential of rectangle s at point p
// (the tabulated counterpart of kernel.Source.Collocation without the
// far-field dispatch, which callers apply first).
func (c *Collocation) EvalRect(s geom.Rect, p geom.Vec3) (float64, bool) {
	pu := p.Component(s.UAxis())
	pv := p.Component(s.VAxis())
	pz := p.Component(s.Normal) - s.Offset
	return c.EvalCoords(s.U.Lo, s.U.Hi, s.V.Lo, s.V.Hi, pu, pv, pz)
}
