package kernel

import (
	"math/rand"
	"testing"

	"parbem/internal/geom"
)

// randRect draws a rectangle with random orientation, span and position,
// scaled so the pair distances exercise every dispatch branch of
// RectGalerkin (far, mid, close parallel, close perpendicular, touching).
func randRect(rng *rand.Rand, spread float64) geom.Rect {
	lo := func() float64 { return (rng.Float64() - 0.5) * spread }
	u0, v0 := lo(), lo()
	return geom.Rect{
		Normal: geom.Axis(rng.Intn(3)),
		Offset: lo(),
		U:      geom.Interval{Lo: u0, Hi: u0 + 0.2 + rng.Float64()},
		V:      geom.Interval{Lo: v0, Hi: v0 + 0.2 + rng.Float64()},
	}
}

// TestRectGalerkinBatchMatches pins the batch evaluator to the per-pair
// path bitwise: the cached target-side quantities and the replicated
// quadrature loop must not perturb a single ulp, because near-field
// reuse across geometry variants (fmm.Reuse) compares copied entries
// against fresh integrations.
func TestRectGalerkinBatchMatches(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  *Config
	}{
		{"default", DefaultConfig()},
		{"exact", func() *Config { c := DefaultConfig(); c.DisableApprox = true; return c }()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			var b Batch
			for _, spread := range []float64{1, 4, 40} { // close, mid, far regimes
				for trial := 0; trial < 200; trial++ {
					tgt := randRect(rng, spread)
					b.Reset(tc.cfg, tgt)
					for k := 0; k < 4; k++ {
						src := randRect(rng, spread)
						want := RectGalerkin(tc.cfg, tgt, src)
						if got := b.Eval(src); got != want {
							t.Fatalf("spread %g: Eval = %.17g, RectGalerkin = %.17g\n  t=%v\n  s=%v",
								spread, got, want, tgt, src)
						}
					}
					// Self pair: the parallel closed form at Z=0.
					if got, want := b.Eval(tgt), RectGalerkin(tc.cfg, tgt, tgt); got != want {
						t.Fatalf("self pair: %.17g vs %.17g (t=%v)", got, want, tgt)
					}
				}
			}
		})
	}
}

// TestRectGalerkinBatchSlice covers the slice wrapper.
func TestRectGalerkinBatchSlice(t *testing.T) {
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(11))
	tgt := randRect(rng, 2)
	src := make([]geom.Rect, 32)
	for i := range src {
		src[i] = randRect(rng, 2)
	}
	dst := make([]float64, len(src))
	RectGalerkinBatch(cfg, tgt, src, dst)
	for i, s := range src {
		if want := RectGalerkin(cfg, tgt, s); dst[i] != want {
			t.Fatalf("dst[%d] = %.17g, want %.17g", i, dst[i], want)
		}
	}
}

// benchBlock builds one target and a block of sources spanning the
// near/mid/far mix of a leaf-pair near block: same-plane neighbours,
// perpendicular close pairs and separated pairs.
func benchBlock() (geom.Rect, []geom.Rect) {
	rng := rand.New(rand.NewSource(3))
	tgt := geom.Rect{Normal: geom.Z,
		U: geom.Interval{Lo: 0, Hi: 1}, V: geom.Interval{Lo: 0, Hi: 1}}
	src := make([]geom.Rect, 0, 48)
	for i := 0; i < 48; i++ {
		src = append(src, randRect(rng, 3))
	}
	return tgt, src
}

func BenchmarkRectGalerkinPairwise(b *testing.B) {
	cfg := DefaultConfig()
	tgt, src := benchBlock()
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range src {
			sink += RectGalerkin(cfg, tgt, s)
		}
	}
	_ = sink
}

func BenchmarkRectGalerkinBatch(b *testing.B) {
	cfg := DefaultConfig()
	tgt, src := benchBlock()
	var batch Batch
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.Reset(cfg, tgt)
		for _, s := range src {
			sink += batch.Eval(s)
		}
	}
	_ = sink
}
