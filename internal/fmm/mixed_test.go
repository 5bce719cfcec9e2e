package fmm

import (
	"math"
	"math/rand"
	"testing"
)

// TestApplyMixedMatchesApply checks the float32 mirror against the fp64
// apply on a ~1.5k panel bus crossing: the relative difference must stay
// at fp32 rounding level — orders of magnitude below the multipole
// truncation error the operator already carries, which is what lets the
// refinement loop treat ApplyMixed as "the same operator, noisier".
func TestApplyMixedMatchesApply(t *testing.T) {
	panels := busPanels(t, 4, 4, 1e-6)
	op := NewOperator(panels, Options{Workers: 1})
	op.EnableMixed()
	n := len(panels)
	rng := rand.New(rand.NewSource(3))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := make([]float64, n)
	got := make([]float64, n)
	op.Apply(want, x)
	op.ApplyMixed(got, x)
	var num, den float64
	for i := range want {
		d := got[i] - want[i]
		num += d * d
		den += want[i] * want[i]
	}
	rel := math.Sqrt(num / den)
	t.Logf("fp64 vs mixed rel diff: %.3e (N=%d)", rel, n)
	if !(rel <= 1e-4) { // negated form catches NaN (fp32 overflow etc.)
		t.Fatalf("mixed apply rel diff %g, want <= 1e-4", rel)
	}
	if rel == 0 {
		t.Fatal("mixed apply identical to fp64: float32 path not exercised")
	}
}

// TestApplyMixedParallelMatchesSerial runs the float32 apply on four
// workers: every leaf gathers x into its own segment of the scratch, so
// the result is the serial one bitwise. (The leaves once shared one
// gather buffer — a data race this test shows under -race, and as wrong
// rows whenever two leaves overlapped.)
func TestApplyMixedParallelMatchesSerial(t *testing.T) {
	panels := busPanels(t, 3, 3, 1e-6)
	n := len(panels)
	rng := rand.New(rand.NewSource(4))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	serial := NewOperator(panels, Options{Workers: 1})
	serial.EnableMixed()
	want := make([]float64, n)
	serial.ApplyMixed(want, x)
	par := NewOperator(panels, Options{Workers: 4})
	par.EnableMixed()
	got := make([]float64, n)
	for rep := 0; rep < 5; rep++ {
		par.ApplyMixed(got, x)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("rep %d: parallel mixed apply diverged at %d: %g vs %g", rep, i, got[i], want[i])
			}
		}
	}
}

// TestApplyMixedBeforeEnable pins the fallback contract: without
// EnableMixed, ApplyMixed must produce the fp64 result bitwise.
func TestApplyMixedBeforeEnable(t *testing.T) {
	panels := busPanels(t, 2, 2, 1e-6)
	op := NewOperator(panels, Options{Workers: 1})
	n := len(panels)
	x := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	want := make([]float64, n)
	got := make([]float64, n)
	op.Apply(want, x)
	op.ApplyMixed(got, x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ApplyMixed before EnableMixed diverged at %d: %g vs %g", i, got[i], want[i])
		}
	}
}

// TestApplyMixedAllocFree proves the warm float32 apply path allocates
// nothing (serial mode, same guarantee the fp64 Apply documents).
func TestApplyMixedAllocFree(t *testing.T) {
	panels := busPanels(t, 2, 2, 1e-6)
	op := NewOperator(panels, Options{Workers: 1})
	op.EnableMixed()
	n := len(panels)
	x := make([]float64, n)
	dst := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	op.ApplyMixed(dst, x) // warm the scratch
	if allocs := testing.AllocsPerRun(10, func() { op.ApplyMixed(dst, x) }); allocs > 0 {
		t.Errorf("warm ApplyMixed allocates %v times per run", allocs)
	}
}
