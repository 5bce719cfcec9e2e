package pfft

import (
	"testing"

	"parbem/internal/geom"
	"parbem/internal/kernel"
	"parbem/internal/linalg"
)

// busPanels panelizes the default bus structure. (The tests used to
// borrow pcbem.Problem for this, but pcbem now sits above this package
// in the import graph, on the unified pipeline.)
func busPanels(tb testing.TB, m, n int, edge float64) []geom.Panel {
	tb.Helper()
	st := geom.DefaultBus(m, n).Build()
	panels := st.Panelize(edge)
	if len(panels) == 0 {
		tb.Fatal("no panels generated")
	}
	return panels
}

// denseRef assembles the scaled dense Galerkin reference matrix for the
// panels (the exact operator the pFFT matvec approximates).
func denseRef(panels []geom.Panel) *linalg.Dense {
	cfg := kernel.DefaultConfig()
	n := len(panels)
	m := linalg.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := kernel.Scale(kernel.RectGalerkin(cfg, panels[i].Rect, panels[j].Rect))
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}
