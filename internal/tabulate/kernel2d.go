package tabulate

import "parbem/internal/kernel"

// Domain2D bounds the parameter space of the simplified 2-D expression of
// paper Eq. (13): a source rectangle [0,W] x [0,H] in the z=0 plane and an
// in-plane evaluation point (X, Y). The approximation distance bounds the
// ranges, which is what makes tabulation feasible (paper Section 4.2.1).
type Domain2D struct {
	WMin, WMax float64 // rectangle width range
	HMin, HMax float64 // rectangle height range
	XMin, XMax float64 // evaluation-point range (rectangle-relative)
	YMin, YMax float64
}

// DefaultDomain2D covers rectangles with aspect ratios up to 4 and
// evaluation points within two diameters of the rectangle, in normalized
// units; beyond that range the dimension-reduced expressions take over.
func DefaultDomain2D() Domain2D {
	return Domain2D{
		WMin: 0.25, WMax: 2,
		HMin: 0.25, HMax: 2,
		XMin: -3, XMax: 5,
		YMin: -3, YMax: 5,
	}
}

// Definite2D is the direct tabulation (paper Section 4.2.1) of the definite
// integral f2D(W, H, X, Y) = int_0^W int_0^H 1/|r - r'| dx' dy' evaluated
// at in-plane point (X, Y).
type Definite2D struct {
	tab *Table
}

// NewDefinite2D samples the definite integral on a (nw, nh, nx, ny) grid.
func NewDefinite2D(dom Domain2D, nw, nh, nx, ny int) *Definite2D {
	dims := []Dim{
		{dom.WMin, dom.WMax, nw},
		{dom.HMin, dom.HMax, nh},
		{dom.XMin, dom.XMax, nx},
		{dom.YMin, dom.YMax, ny},
	}
	t := Build(dims, func(p []float64) float64 {
		return kernel.RectPotential(0, p[0], 0, p[1], p[2], p[3], 0)
	})
	return &Definite2D{tab: t}
}

// Eval returns the 4-linear interpolation of the definite integral.
func (d *Definite2D) Eval(w, h, x, y float64) float64 {
	return d.tab.Eval4(w, h, x, y)
}

// Bytes returns the table memory.
func (d *Definite2D) Bytes() int { return d.tab.Bytes() }

// Indefinite2D is the indefinite-integral tabulation (paper Section 4.2.2):
// only F2(X, Y, z=0) is tabulated (2 parameters instead of 4), and the
// definite integral is recovered by differencing the four corner
// substitutions, at the cost of the cancellation the paper warns about.
type Indefinite2D struct {
	tab *Table
}

// NewIndefinite2D builds the F2 table. The domain must cover
// [XMin - WMax, XMax] x [YMin - HMax, YMax] so that all corner
// substitutions stay inside the grid.
func NewIndefinite2D(dom Domain2D, n int) *Indefinite2D {
	dims := []Dim{
		{dom.XMin - dom.WMax, dom.XMax, n},
		{dom.YMin - dom.HMax, dom.YMax, n},
	}
	t := Build(dims, func(p []float64) float64 {
		return kernel.F2(p[0], p[1], 0)
	})
	return &Indefinite2D{tab: t}
}

// Eval recovers the definite integral by corner differencing.
func (d *Indefinite2D) Eval(w, h, x, y float64) float64 {
	return d.tab.Eval2(x, y) - d.tab.Eval2(x-w, y) -
		d.tab.Eval2(x, y-h) + d.tab.Eval2(x-w, y-h)
}

// Bytes returns the table memory.
func (d *Indefinite2D) Bytes() int { return d.tab.Bytes() }
