package assembly

import (
	"fmt"
	"math"
	"testing"

	"parbem/internal/basis"
	"parbem/internal/geom"
	"parbem/internal/kernel"
)

// censusThresholds are the relative differences between a class's value
// at the default order and at QuadOrder 12 that the census counts over.
var censusThresholds = [3]float64{1e-4, 1e-3, 1e-2}

// censusCell counts the classes of one integration route and target
// aspect ratio: all of them, then those over each of censusThresholds.
type censusCell [4]int

// census is the class census of a fill: per route and aspect bucket, its
// cells, and per route, its share of the weighted difference.
type census struct {
	classes int
	over    [3]int
	cells   map[string]censusCell
	shares  map[string]float64
}

// censusRoute names the path templatePairNear takes for the pair (ti, tj),
// its dispatch read in the same order.
func censusRoute(cfg *kernel.Config, ti, tj *basis.Template, d, diam float64) string {
	if !cfg.DisableApprox && d > kernel.MidFactor*diam {
		return "collocation" // mid-range, both for RectGalerkin and for shaped pairs
	}
	parallel := ti.Support.ParallelTo(tj.Support)
	switch {
	case ti.IsFlat() && tj.IsFlat() && parallel:
		return "parallel" // GalerkinParallel's closed form
	case ti.IsFlat() && tj.IsFlat():
		return "perp" // kernel.rectGalerkinPerp
	case !parallel:
		return "generic" // genericPair
	case ti.IsFlat() || tj.IsFlat():
		return "strip"
	case ti.Dir == tj.Dir:
		return "same-axis"
	}
	return "cross-axis"
}

// censusAspect buckets a target support by its long side over its short.
func censusAspect(r geom.Rect) string {
	u, v := r.U.Len(), r.V.Len()
	switch a := max(u, v) / min(u, v); {
	case a < 2:
		return "1-2"
	case a < 8:
		return "2-8"
	}
	return ">8"
}

// takeCensus interns the default m x m bus at the default order and walks
// its near pairs as the fill does (i <= j). Each class is integrated the
// way classValue integrates it, by templatePairNear on the instance its key
// describes, at the default order and at QuadOrder 12, and is weighted by
// Σ|amp_i amp_j| over its pairs: a route's share is its part of
// Σ weight·|v12 − v4| over all classes, what the order leaves in P.
func takeCensus(m int) census {
	set := basis.Build(geom.DefaultBus(m, m).Build(), basis.BuilderOptions{})
	in := NewIntegrator()
	hi := &Integrator{Cfg: &kernel.Config{QuadOrder: 12}}
	f := in.Intern(set)
	type class struct {
		route, aspect string
		rel, diff     float64 // |v12 − v4| over |v12|, and alone
		weight        float64
	}
	classes := map[pairKey]*class{}
	for j := range f.tpl {
		for i := 0; i <= j; i++ {
			a, b := &f.tpl[i], &f.tpl[j]
			if f.beyond(dist2(a, b), a, b) || a.cls == nil || b.cls == nil {
				continue
			}
			var k pairKey
			ca, cb := f.canon(a, b, &k)
			c := classes[k]
			if c == nil {
				var at [3]int64
				for ax, d := range k.d {
					at[ax] = (d + ca.ext[ax] - cb.ext[ax]) / 2
				}
				ta, tb := ca.instance([3]int64{}), cb.instance(at)
				d, diam := ta.Support.Dist(tb.Support), 0.5*(ta.Support.Diameter()+tb.Support.Diameter())
				v4, v12 := in.templatePairNear(&ta, &tb, d, diam), hi.templatePairNear(&ta, &tb, d, diam)
				c = &class{
					route:  censusRoute(in.Cfg, &ta, &tb, d, diam),
					aspect: censusAspect(ta.Support),
					rel:    math.Abs(v12-v4) / math.Abs(v12),
					diff:   math.Abs(v12 - v4),
				}
				classes[k] = c
			}
			c.weight += math.Abs(a.amp * b.amp)
		}
	}
	out := census{classes: len(classes), cells: map[string]censusCell{}, shares: map[string]float64{}}
	var total float64
	for _, c := range classes {
		key := c.route + " " + c.aspect
		cell := out.cells[key]
		cell[0]++
		for l, th := range censusThresholds {
			if c.rel > th {
				cell[l+1]++
				out.over[l]++
			}
		}
		out.cells[key] = cell
		out.shares[c.route] += c.weight * c.diff
		total += c.weight * c.diff
	}
	for r := range out.shares {
		out.shares[r] /= total
	}
	return out
}

// TestClassCensus pins where the default quadrature order falls short on
// the bus: how many of the fill's classes differ from their QuadOrder 12
// value by more than 1e-4, 1e-3 and 1e-2 relative, per integration route
// and target aspect ratio, and each route's share of the weighted
// difference. The counts repeat exactly. It is a census, not an accuracy
// gate: a change to the integration that moves a class moves these pins,
// and says so. 8x8 and 16x16 run always, 24x24 (the paper's size) outside
// -short.
func TestClassCensus(t *testing.T) {
	sizes := []int{8, 16}
	if !testing.Short() {
		sizes = append(sizes, 24)
	}
	for _, m := range sizes {
		t.Run(fmt.Sprintf("bus%d", m), func(t *testing.T) {
			want, got := censusPins[m], takeCensus(m)
			t.Logf("%d classes, %v over %v; shares %v", got.classes, got.over, censusThresholds, got.shares)
			if got.classes != want.classes || got.over != want.over {
				t.Errorf("%d classes, %v over %v; want %d, %v", got.classes, got.over, censusThresholds, want.classes, want.over)
			}
			for key, w := range want.cells {
				if g := got.cells[key]; g != w {
					t.Errorf("%s: %v classes, over; want %v", key, g, w)
				}
			}
			for key, g := range got.cells {
				if _, ok := want.cells[key]; !ok {
					t.Errorf("%s: %v classes, over; want none", key, g)
				}
			}
			for r, w := range want.shares {
				if g := got.shares[r]; math.Abs(g-w) > 5e-4 {
					t.Errorf("%s: share %.4f of the weighted difference, want %.4f", r, g, w)
				}
			}
		})
	}
}

// censusPins are the census of the default bus at each size. Every class
// that moves by more than 1e-4, but for a few same-axis ones, has a
// wire-long target: the default rule spends its nodes on the short axis.
var censusPins = map[int]census{
	8: {classes: 6249, over: [3]int{392, 102, 31}, cells: map[string]censusCell{
		"collocation 1-2": {1228, 0, 0, 0},
		"collocation 2-8": {869, 0, 0, 0},
		"cross-axis 1-2":  {111, 0, 0, 0},
		"cross-axis 2-8":  {154, 0, 0, 0},
		"generic 1-2":     {230, 0, 0, 0},
		"generic 2-8":     {243, 0, 0, 0},
		"generic >8":      {341, 101, 68, 26},
		"parallel 1-2":    {208, 0, 0, 0},
		"parallel 2-8":    {100, 0, 0, 0},
		"parallel >8":     {431, 0, 0, 0},
		"perp 1-2":        {199, 0, 0, 0},
		"perp 2-8":        {131, 0, 0, 0},
		"perp >8":         {759, 285, 28, 5},
		"same-axis 1-2":   {65, 2, 2, 0},
		"same-axis 2-8":   {52, 4, 4, 0},
		"strip 1-2":       {451, 0, 0, 0},
		"strip 2-8":       {257, 0, 0, 0},
		"strip >8":        {420, 0, 0, 0},
	}, shares: map[string]float64{
		"collocation": 0.0000,
		"cross-axis":  0.0000,
		"generic":     0.7578,
		"parallel":    0.0000,
		"perp":        0.1533,
		"same-axis":   0.0888,
		"strip":       0.0001,
	}},
	16: {classes: 19447, over: [3]int{1945, 1107, 242}, cells: map[string]censusCell{
		"collocation 1-2": {2729, 0, 0, 0},
		"collocation 2-8": {1718, 0, 0, 0},
		"cross-axis 1-2":  {111, 0, 0, 0},
		"cross-axis 2-8":  {154, 0, 0, 0},
		"generic 1-2":     {1587, 0, 0, 0},
		"generic 2-8":     {503, 0, 0, 0},
		"generic >8":      {1829, 557, 343, 190},
		"parallel 1-2":    {1070, 0, 0, 0},
		"parallel >8":     {1486, 0, 0, 0},
		"perp 1-2":        {1412, 0, 0, 0},
		"perp >8":         {2590, 1382, 758, 52},
		"same-axis 1-2":   {78, 2, 2, 0},
		"same-axis 2-8":   {65, 4, 4, 0},
		"strip 1-2":       {1595, 0, 0, 0},
		"strip 2-8":       {624, 0, 0, 0},
		"strip >8":        {1896, 0, 0, 0},
	}, shares: map[string]float64{
		"collocation": 0.0000,
		"cross-axis":  0.0000,
		"generic":     0.7693,
		"parallel":    0.0000,
		"perp":        0.2125,
		"same-axis":   0.0182,
		"strip":       0.0000,
	}},
	24: {classes: 49400, over: [3]int{6976, 5043, 954}, cells: map[string]censusCell{
		"collocation 1-2": {2748, 0, 0, 0},
		"collocation 2-8": {1735, 0, 0, 0},
		"cross-axis 1-2":  {111, 0, 0, 0},
		"cross-axis 2-8":  {154, 0, 0, 0},
		"generic 1-2":     {4306, 0, 0, 0},
		"generic 2-8":     {1451, 0, 0, 0},
		"generic >8":      {5214, 1544, 948, 499},
		"parallel 1-2":    {3324, 0, 0, 0},
		"parallel >8":     {4998, 0, 0, 0},
		"perp 1-2":        {4612, 0, 0, 0},
		"perp >8":         {8952, 5426, 4089, 455},
		"same-axis 1-2":   {78, 2, 2, 0},
		"same-axis 2-8":   {65, 4, 4, 0},
		"strip 1-2":       {4340, 0, 0, 0},
		"strip 2-8":       {1788, 0, 0, 0},
		"strip >8":        {5524, 0, 0, 0},
	}, shares: map[string]float64{
		"collocation": 0.0000,
		"cross-axis":  0.0000,
		"generic":     0.6810,
		"parallel":    0.0000,
		"perp":        0.3082,
		"same-axis":   0.0109,
		"strip":       0.0000,
	}},
}
