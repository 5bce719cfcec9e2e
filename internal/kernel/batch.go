package kernel

import "parbem/internal/geom"

// RectGalerkinBatch computes dst[k] = RectGalerkin(cfg, t, src[k]) for
// every source, pair by pair; dst must have at least len(src) entries. No
// fill calls it (every exact panel-pair value comes from the symmetry-class
// table, assembly.InternPanels): bench/'s kernel.pair_ns probe times the
// one evaluator through it.
func RectGalerkinBatch(cfg *Config, t geom.Rect, src []geom.Rect, dst []float64) {
	for k, s := range src {
		dst[k] = RectGalerkin(cfg, t, s)
	}
}
