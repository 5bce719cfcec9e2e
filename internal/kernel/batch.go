package kernel

import (
	"math"

	"parbem/internal/geom"
	"parbem/internal/quad"
)

// Batch amortizes the target-side setup of RectGalerkin across a block
// of source rectangles sharing one target. RectGalerkin re-derives, per
// pair, the target's axis extents (three switch dispatches inside
// Rect.Dist), its diameter, area and centroid, and — on the
// perpendicular quadrature branch — the mapped Gauss nodes plus a 3-D
// point construction and three axis-switched component extractions per
// quadrature point. All of that depends only on the target, so a blocked
// fill (one matrix row, one near-field leaf-pair block) pays it once per
// target instead of once per pair.
//
// Results are bitwise identical to RectGalerkin: the cached values feed
// the same expressions in the same evaluation order, and the quadrature
// loop replicates quad.Integrate2D's accumulation exactly (verified by
// TestRectGalerkinBatchMatches).
//
// The zero value is ready for Reset. A Batch retains its quadrature
// tables across Reset calls (reallocated only when the order grows), so
// one long-lived value per worker makes blocked fills allocation-light.
// Not safe for concurrent use; give each worker its own.
//
// No fill uses it any more: since PR 22 every exact panel-pair value comes
// from the symmetry-class table (assembly.InternPanels), which integrates a
// class once where a Batch made each of its pairs cheaper. Batch and
// RectGalerkinBatch stay compiled for the frozen bench/'s kernel.pair_ns
// probe and their own tests, and go with that probe (ROADMAP, removal
// candidates).
type Batch struct {
	cfg *Config
	t   geom.Rect

	ext    [3]geom.Interval // target extent per axis (degenerate along Normal)
	center geom.Vec3
	area   float64
	diam   float64
	tU, tV geom.Axis

	// levels caches the target's mapped tensor quadrature rules for the
	// perpendicular branch, one slot per escalation step of
	// rectGalerkinPerp (base order, close, very close). Built lazily:
	// blocks without close perpendicular pairs never touch them.
	levels [3]quadLevel
}

// quadLevel is one cached tensor rule over the target rectangle: nodes
// mapped to the U and V intervals, raw Gauss weights, and the Jacobian
// hx*hy applied once per integral (mirroring quad.Integrate2D).
type quadLevel struct {
	n      int // rule order, 0 = not built for the current target
	us, vs []float64
	wx, wy []float64
	hh     float64
}

// Reset points the batch at a new target rectangle, invalidating the
// cached quadrature levels but keeping their storage.
func (b *Batch) Reset(cfg *Config, t geom.Rect) {
	b.cfg = cfg
	b.t = t
	for ax := geom.X; ax <= geom.Z; ax++ {
		b.ext[ax] = t.Extent(ax)
	}
	b.center = t.Center()
	b.area = t.Area()
	b.diam = t.Diameter()
	b.tU, b.tV = t.UAxis(), t.VAxis()
	for i := range b.levels {
		b.levels[i].n = 0
	}
}

// dist is Rect.Dist with the target's extents served from the cache.
func (b *Batch) dist(s geom.Rect) float64 {
	var d2 float64
	for ax := geom.X; ax <= geom.Z; ax++ {
		g := b.ext[ax].Gap(s.Extent(ax))
		d2 += g * g
	}
	return math.Sqrt(d2)
}

// Eval computes RectGalerkin(cfg, t, s) for the Reset target t,
// reproducing its approximation-distance dispatch from cached
// target-side quantities.
func (b *Batch) Eval(s geom.Rect) float64 {
	cfg := b.cfg
	d := b.dist(s)
	diam := 0.5 * (b.diam + s.Diameter())
	if !cfg.DisableApprox {
		if d > cfg.FarFactor*diam {
			return b.area * s.Area() / b.center.Dist(s.Center())
		}
		if d > cfg.MidFactor*diam {
			return b.area * rectPotentialAt(s, b.center)
		}
	}
	if b.t.ParallelTo(s) {
		return rectGalerkinParallel(b.t, s)
	}
	return b.evalPerp(s, d, diam)
}

// evalPerp is rectGalerkinPerp over the cached target rule: the order
// escalation picks a quadLevel, and the point loop reads the target's
// plane coordinates straight from the mapped node arrays instead of
// building a Vec3 and re-dispatching on axes per point. The selector
// codes cu/cv/cn map each source-frame axis (U, V, Normal) to one of
// {target offset, target u node, target v node} once per pair.
func (b *Batch) evalPerp(s geom.Rect, d, diam float64) float64 {
	lv := 0
	order := b.cfg.QuadOrder
	if d < 0.1*diam {
		lv, order = 2, min(order*4, quad.MaxOrder)
	} else if d < diam {
		lv, order = 1, min(order*2, quad.MaxOrder)
	}
	l := b.level(lv, order)

	cu := b.axisCode(s.UAxis())
	cv := b.axisCode(s.VAxis())
	cn := b.axisCode(s.Normal)
	u1, u2, v1, v2 := s.U.Lo, s.U.Hi, s.V.Lo, s.V.Hi
	off := s.Offset
	var sum float64
	for i, u := range l.us {
		var inner float64
		for j, v := range l.vs {
			vals := [3]float64{b.t.Offset, u, v}
			inner += l.wy[j] * RectPotential(u1, u2, v1, v2,
				vals[cu], vals[cv], vals[cn]-off)
		}
		sum += l.wx[i] * inner
	}
	return l.hh * sum
}

// axisCode classifies axis a in the target frame: 0 = the target normal
// (coordinate is the plane offset), 1 = the target U axis, 2 = V.
func (b *Batch) axisCode(a geom.Axis) int {
	switch a {
	case b.tU:
		return 1
	case b.tV:
		return 2
	}
	return 0
}

// level returns the cached tensor rule of the given order, building it
// on first use for the current target.
func (b *Batch) level(lv, order int) *quadLevel {
	l := &b.levels[lv]
	if l.n == order {
		return l
	}
	r := quad.Gauss(order)
	hx, mx := 0.5*(b.t.U.Hi-b.t.U.Lo), 0.5*(b.t.U.Lo+b.t.U.Hi)
	hy, my := 0.5*(b.t.V.Hi-b.t.V.Lo), 0.5*(b.t.V.Lo+b.t.V.Hi)
	l.us = growFloats(l.us, order)
	l.vs = growFloats(l.vs, order)
	l.wx = growFloats(l.wx, order)
	l.wy = growFloats(l.wy, order)
	for i, x := range r.Nodes {
		l.us[i] = mx + hx*x
		l.vs[i] = my + hy*x
		l.wx[i] = r.Weights[i]
		l.wy[i] = r.Weights[i]
	}
	l.hh = hx * hy
	l.n = order
	return l
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// RectGalerkinBatch computes dst[k] = RectGalerkin(cfg, t, src[k]) for
// every source, sharing the target-side setup across the block. dst must
// have at least len(src) entries. For streaming fills (matrix rows,
// near-field blocks) use a worker-local Batch directly and skip the
// slice marshalling.
func RectGalerkinBatch(cfg *Config, t geom.Rect, src []geom.Rect, dst []float64) {
	var b Batch
	b.Reset(cfg, t)
	for k := range src {
		dst[k] = b.Eval(src[k])
	}
}
