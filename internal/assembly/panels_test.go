package assembly

import (
	"math"
	"testing"

	"parbem/internal/geom"
	"parbem/internal/kernel"
)

func plates(gap float64) *geom.Structure {
	const side, thick = 6e-6, 0.2e-6
	return &geom.Structure{Name: "plates", Conductors: []*geom.Conductor{
		{Name: "bot", Boxes: []geom.Box{geom.NewBox(geom.Vec3{}, geom.Vec3{X: side, Y: side, Z: thick})}},
		{Name: "top", Boxes: []geom.Box{geom.NewBox(geom.Vec3{Z: thick + gap}, geom.Vec3{X: side, Y: side, Z: 2*thick + gap})}},
	}}
}

// onThreshold reports whether the pair's separation over its mean diameter
// sits on one of the four values the §4.1 dispatch compares it with: the
// far and mid factors, and the two at which the perpendicular quadrature
// raises its order.
func onThreshold(t, s geom.Rect) bool {
	r := t.Dist(s) / (0.5 * (t.Diameter() + s.Diameter()))
	for _, th := range []float64{kernel.FarFactor, kernel.MidFactor, 1.0, 0.1} {
		if math.Abs(r-th) <= 1e-9*th {
			return true
		}
	}
	return false
}

// TestPanelCensus counts, for the benchmark's four served families at their
// base edge, the 4x4 bus at 0.5 um and the interconnect, what the panel
// path integrates and how far a class value lies from the same pair at its
// own coordinates: every ordered pair within 1e-9 of kernel.RectGalerkin,
// except pairs whose separation sits on a dispatch threshold, where
// rounding at absolute coordinates picks the branch and the class's
// canonical instance picks it once for every image of the pair. The counts
// repeat exactly; a change that moves one has changed the key.
func TestPanelCensus(t *testing.T) {
	cross := geom.DefaultCrossingPair()
	for _, c := range []struct {
		name     string
		st       *geom.Structure
		edge     float64
		n        int
		upper    int64 // classes of the upper triangle, target = lower index
		both     int64 // classes of all ordered pairs
		outliers int   // ordered pairs further than 1e-9 from absolute coordinates
		long     bool
	}{
		{"bus2x2", geom.DefaultBus(2, 2).Build(), 1e-6, 120, 378, 394, 16, false},
		{"bus3x3", geom.DefaultBus(3, 3).Build(), 1e-6, 228, 721, 738, 112, false},
		{"plates", plates(0.5e-6), 1e-6, 192, 446, 495, 0, false},
		{"crossing", cross.Build(), 0.4e-6, 524, 27890, 35698, 256, false},
		{"bus4x4", geom.DefaultBus(4, 4).Build(), 0.5e-6, 1088, 2644, 2677, 3084, true},
		{"interconnect", geom.DefaultInterconnect().Build(), 0.5e-6, 1376, 116973, 201195, 2428, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.long && testing.Short() {
				t.Skip("over a million pairs")
			}
			cfg := kernel.DefaultConfig()
			panels := c.st.Panelize(c.edge)
			n := len(panels)
			var up FillStats
			f := InternPanels(cfg, nil, panels)
			for i := 0; i < n; i++ {
				for j := i; j < n; j++ {
					f.PairInto(i, j, &up)
				}
			}
			var all FillStats
			f = InternPanels(cfg, nil, panels)
			outliers, worst, worstOut := 0, 0.0, 0.0
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					got := f.PairInto(i, j, &all)
					want := kernel.RectGalerkin(cfg, panels[i].Rect, panels[j].Rect)
					rel := math.Abs(got-want) / math.Abs(want)
					if rel <= 1e-9 {
						worst = max(worst, rel)
						continue
					}
					outliers++
					worstOut = max(worstOut, rel)
					if !onThreshold(panels[i].Rect, panels[j].Rect) {
						t.Fatalf("pair (%d, %d): class value %g, %g at its own coordinates (%.2g relative), and no threshold near", i, j, got, want, rel)
					}
				}
			}
			t.Logf("%d panels: %d classes for the upper triangle (%d near, %d far pairs), %d for both orders (%d near, %d far); %d threshold pairs off by up to %.2g, the rest within %.2g",
				n, up.ClassesIntegrated, up.PairsNear, up.PairsFar, all.ClassesIntegrated, all.PairsNear, all.PairsFar, outliers, worstOut, worst)
			if n != c.n || up.ClassesIntegrated != c.upper || all.ClassesIntegrated != c.both || outliers != c.outliers {
				t.Errorf("%d panels, %d / %d classes, %d outliers; want %d, %d / %d, %d",
					n, up.ClassesIntegrated, all.ClassesIntegrated, outliers, c.n, c.upper, c.both, c.outliers)
			}
		})
	}
}
