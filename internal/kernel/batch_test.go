package kernel

import (
	"math/rand"
	"testing"

	"parbem/internal/geom"
	"parbem/internal/quad"
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
// quadrature loop must not perturb a single ulp.
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

// TestSourceMatchesAxisDispatch pins Source to the per-point forms it
// hoists the axis dispatch out of, bitwise (kernel.ArithVersion does not
// move with it): Potential to rectPotentialAt, Collocation to the far gate
// over Rect.DistToPoint that RectCollocation was, and rectGalerkinPerp to
// the quadrature that built t.Point(u, v) for every node.
func TestSourceMatchesAxisDispatch(t *testing.T) {
	cfg := DefaultConfig()
	collocation := func(s geom.Rect, p geom.Vec3) float64 {
		if s.DistToPoint(p) > cfg.FarFactor*s.Diameter() {
			return s.Area() / s.Center().Dist(p)
		}
		return rectPotentialAt(s, p)
	}
	rng := rand.New(rand.NewSource(19))
	perp, far := 0, 0
	for _, spread := range []float64{1, 4, 80} {
		for trial := 0; trial < 300; trial++ {
			s, tgt := randRect(rng, spread), randRect(rng, spread)
			src := NewSource(s)
			p := [3]float64{(rng.Float64() - 0.5) * spread, (rng.Float64() - 0.5) * spread, (rng.Float64() - 0.5) * spread}
			pt := geom.Vec3{X: p[0], Y: p[1], Z: p[2]}
			if got, want := src.Potential(&p), rectPotentialAt(s, pt); got != want {
				t.Fatalf("Potential = %.17g, rectPotentialAt = %.17g (s=%v p=%v)", got, want, s, pt)
			}
			if got, want := src.Collocation(cfg, &p), collocation(s, pt); got != want {
				t.Fatalf("Collocation = %.17g, per-point form = %.17g (s=%v p=%v)", got, want, s, pt)
			}
			if s.DistToPoint(pt) > cfg.FarFactor*s.Diameter() {
				far++
			}
			if tgt.ParallelTo(s) {
				continue
			}
			perp++
			order := cfg.QuadOrder
			if d, diam := tgt.Dist(s), 0.5*(tgt.Diameter()+s.Diameter()); d < 0.1*diam {
				order *= 4
			} else if d < diam {
				order *= 2
			}
			want := quad.Integrate2D(func(u, v float64) float64 {
				return rectPotentialAt(s, tgt.Point(u, v))
			}, tgt.U.Lo, tgt.U.Hi, tgt.V.Lo, tgt.V.Hi, order, order)
			if got := rectGalerkinPerp(cfg, tgt, s); got != want {
				t.Fatalf("rectGalerkinPerp = %.17g, per-point form = %.17g\n  t=%v\n  s=%v", got, want, tgt, s)
			}
		}
	}
	if perp < 300 || far < 50 {
		t.Fatalf("%d perpendicular pairs and %d far points sampled: widen the sweep", perp, far)
	}
}
