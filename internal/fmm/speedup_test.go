package fmm

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"parbem/internal/geom"
)

// speedupPanels is the ~5k panel configuration the list-based operator
// is benchmarked on.
func speedupPanels(tb testing.TB) []geom.Panel {
	tb.Helper()
	return busPanels(tb, 7, 7, 0.45e-6)
}

// TestFMMOperatorSpeedup checks the list-based rebuild against the seed
// recursive operator at ~5k panels: it must agree with the exact model
// to multipole truncation accuracy and be no less accurate than the
// recursive walk. The single-threaded Apply ratio (about 4x on an idle
// host) is logged, not asserted: under package-parallel test load a
// wall-clock bound fails on timing alone, and the benchmark ledger
// carries the number as fmm.apply_ms / fmm.apply_1w_ms.
func TestFMMOperatorSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second construction")
	}
	panels := speedupPanels(t)
	n := len(panels)
	if n < 4000 || n > 7000 {
		t.Fatalf("problem size drifted: N=%d, want ~5k", n)
	}

	newOp := NewOperator(panels, Options{Workers: 1})
	refOp := newRefOperator(panels, Options{})
	refOp.opt.Workers = 1

	rng := rand.New(rand.NewSource(7))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := make([]float64, n)
	want := make([]float64, n)

	timeApplies := func(apply func(dst, x []float64), dst []float64) time.Duration {
		apply(dst, x) // warm
		best := time.Duration(math.MaxInt64)
		for r := 0; r < 3; r++ {
			t0 := time.Now()
			apply(dst, x)
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		return best
	}
	tNew := timeApplies(newOp.Apply, got)
	tRef := timeApplies(refOp.Apply, want)

	// Accuracy cross-check against the exact model both operators
	// approximate: near CSR row plus brute-force point charges for
	// everything else. The list-based operator must stay at
	// TestOperatorMatchesDenseMatvec-level accuracy — and must not be
	// worse than the recursive walk it replaces (at this scale the
	// recursive walk's per-point opening criterion drifts to several
	// percent; the dual-tree criterion stays well under 1%).
	inNear := make([]bool, n)
	var numNew, numRef, den float64
	for i := 0; i < n; i++ {
		row := newOp.nearIdx[newOp.nearOff[i]:newOp.nearOff[i+1]]
		val := newOp.nearVal[newOp.nearOff[i]:newOp.nearOff[i+1]]
		var near float64
		for k, pj := range row {
			near += val[k] * x[pj]
			inNear[pj] = true
		}
		var far float64
		for j := 0; j < n; j++ {
			if inNear[j] {
				continue
			}
			far += x[j] * newOp.areas[j] / newOp.centers[i].Dist(newOp.centers[j])
		}
		for _, pj := range row {
			inNear[pj] = false
		}
		exact := near + newOp.scale*newOp.areas[i]*far
		dn := got[i] - exact
		dr := want[i] - exact
		numNew += dn * dn
		numRef += dr * dr
		den += exact * exact
	}
	relNew := math.Sqrt(numNew / den)
	relRef := math.Sqrt(numRef / den)
	t.Logf("accuracy vs exact model: list-based %.2e, recursive %.2e", relNew, relRef)
	if relNew > 0.02 {
		t.Fatalf("list-based operator rel err %g > 2%%", relNew)
	}
	if relNew > relRef {
		t.Fatalf("list-based operator less accurate than recursive reference: %g vs %g", relNew, relRef)
	}

	speedup := float64(tRef) / float64(tNew)
	t.Logf("N=%d: recursive %v, list-based %v, speedup %.1fx", n, tRef, tNew, speedup)
}

// BenchmarkFMMApply measures the steady-state list-driven matvec in both
// precisions on the same operator (the fp64/mixed delta is the headline
// bandwidth win of the float32 mirror).
func BenchmarkFMMApply(b *testing.B) {
	panels := busPanels(b, 8, 8, 0.75e-6)
	op := NewOperator(panels, Options{})
	op.EnableMixed()
	x := make([]float64, len(panels))
	dst := make([]float64, len(panels))
	for i := range x {
		x[i] = 1
	}
	b.Run("fp64", func(b *testing.B) {
		op.Apply(dst, x)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op.Apply(dst, x)
		}
	})
	b.Run("mixed", func(b *testing.B) {
		op.ApplyMixed(dst, x)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op.ApplyMixed(dst, x)
		}
	})
}

// BenchmarkFMMApplySerial is the single-worker variant (the per-entry
// arithmetic floor without scheduling).
func BenchmarkFMMApplySerial(b *testing.B) {
	panels := busPanels(b, 8, 8, 0.75e-6)
	op := NewOperator(panels, Options{Workers: 1})
	x := make([]float64, len(panels))
	dst := make([]float64, len(panels))
	for i := range x {
		x[i] = 1
	}
	op.Apply(dst, x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op.Apply(dst, x)
	}
}

// BenchmarkFMMConstruct measures operator construction (tree, dual-tree
// traversal, parallel near-field assembly).
func BenchmarkFMMConstruct(b *testing.B) {
	panels := busPanels(b, 8, 8, 0.75e-6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewOperator(panels, Options{})
	}
}
