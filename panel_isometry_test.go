package parbem

import (
	"context"
	"testing"

	"parbem/internal/assembly"
)

// mapBoxes returns st with every box corner sent through f.
func mapBoxes(st *Structure, f func(Vec3) Vec3) *Structure {
	out := &Structure{Name: st.Name}
	for _, c := range st.Conductors {
		nc := &Conductor{Name: c.Name}
		for _, b := range c.Boxes {
			nc.Boxes = append(nc.Boxes, NewBox(f(b.Min), f(b.Max)))
		}
		out.Conductors = append(out.Conductors, nc)
	}
	return out
}

// TestPanelIsometryOracle is the reference-free check of the panel path's
// class key (ROADMAP item 4(b), at small size): the 2x2 bus and its image
// under a translation by a vector off every lattice, extracted dense
// through one shared class table. A translation keeps the panel order, and
// with it which panel of a pair the quadrature collocates, so the two
// capacitance matrices agree to rounding and the second extraction finds
// its classes in the table. The x<->y swap is an isometry too, but it
// renumbers the panels (U is the lower-numbered in-plane axis), so for
// perpendicular pairs the other panel becomes the quadrature target — at
// any commit — and C moves by the quadrature's asymmetry: reported, not
// asserted.
func TestPanelIsometryOracle(t *testing.T) {
	const edge = 1e-6
	table := assembly.NewPairCache(0)
	extract := func(st *Structure) (*PlanResult, assembly.FillStats) {
		t.Helper()
		p, err := NewPlan(PlanOptions{MaxEdge: edge, Pipeline: PipelineOptions{Backend: BackendDense, Direct: true}, Pairs: table})
		if err != nil {
			t.Fatal(err)
		}
		res, fill, err := p.ExtractFillCtx(context.Background(), st)
		if err != nil {
			t.Fatal(err)
		}
		return res, fill
	}
	bus := NewBus(2, 2).Build()
	ref, first := extract(bus)

	shift := Vec3{X: 0.7310585786e-6, Y: -1.6180339887e-6, Z: 0.5772156649e-6}
	moved, second := extract(mapBoxes(bus, func(p Vec3) Vec3 { return p.Add(shift) }))
	e := CapError(moved.C, ref.C)
	t.Logf("translated by %v: CapError %.3g, %d classes integrated after the original's %d", shift, e, second.ClassesIntegrated, first.ClassesIntegrated)
	if e > 1e-10 {
		t.Errorf("translated bus: C differs by %.3g of the diagonal, want <= 1e-10", e)
	}
	if first.ClassesIntegrated == 0 || 100*second.ClassesIntegrated > first.ClassesIntegrated {
		t.Errorf("translated bus integrated %d classes, the original %d: want <= 1%%", second.ClassesIntegrated, first.ClassesIntegrated)
	}

	swapped, third := extract(mapBoxes(bus, func(p Vec3) Vec3 { return Vec3{X: p.Y, Y: p.X, Z: p.Z} }))
	// The swap exchanges the two layers' roles, not the conductor order.
	t.Logf("x<->y swapped: CapError %.3g, %d classes integrated (renumbered panels: other quadrature targets)",
		CapError(swapped.C, ref.C), third.ClassesIntegrated)
}
