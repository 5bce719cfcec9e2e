package parbem

// End-to-end integration tests across module boundaries: geometry file ->
// basis generation -> parallel fill -> solve -> netlist, plus physical
// consistency checks between the instantiable solver and the three
// baseline solvers.

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

const integrationGeo = `
structure itest
unit 1e-6
conductor a
wire x 0 0 0   12 1 0.5
conductor b
wire y 0 0 1.2 12 1 0.5
conductor c
wire x 0 3 0   12 1 0.5
`

func TestFileToNetlistFlow(t *testing.T) {
	st, err := ReadStructure(strings.NewReader(integrationGeo))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Extract(st, Options{Backend: SharedMem})
	if err != nil {
		t.Fatal(err)
	}
	if res.C.Rows != 3 {
		t.Fatalf("C is %dx%d", res.C.Rows, res.C.Cols)
	}
	if v := CheckMaxwell(res.C, 0); len(v) > 0 {
		t.Errorf("Maxwell violations: %v", v)
	}
	var buf bytes.Buffer
	if err := WriteSpice(&buf, res.C, []string{"a", "b", "c"}, 1e-20); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, ".subckt extracted a b c") {
		t.Errorf("netlist header missing:\n%s", out)
	}
	// All three pairwise couplings exist in this geometry.
	for _, pair := range []string{"a b", "a c", "b c"} {
		found := false
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "C") && strings.Contains(line, pair) {
				found = true
			}
		}
		if !found {
			t.Errorf("coupling %q missing from netlist:\n%s", pair, out)
		}
	}

	// Round-trip the structure through the writer.
	var geo bytes.Buffer
	if err := WriteStructure(&geo, st, 1e-6); err != nil {
		t.Fatal(err)
	}
	st2, err := ReadStructure(&geo)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Extract(st2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if e := CapError(res2.C, res.C); e > 1e-9 {
		t.Errorf("round-tripped structure changed the answer by %g", e)
	}
}

func TestAllSolversAgreeOnCrossing(t *testing.T) {
	// The instantiable solver and all three piecewise-constant solvers
	// (dense direct, multipole+GMRES, pFFT+GMRES) must agree on the
	// crossing pair within their combined tolerance budgets.
	st := NewCrossingPair().Build()
	ref, err := ExtractReference(st, 0.4e-6)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := Extract(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fc, err := ExtractFastCapLike(st, 0.4e-6, FastCapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pf, err := ExtractPFFT(st, 0.4e-6, PFFTOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		e    float64
		tol  float64
	}{
		{"instantiable", CapError(inst.C, ref.C), 0.08},
		{"fastcap-analog", CapError(fc.C, ref.C), 0.03},
		{"pfft", CapError(pf.C, ref.C), 0.06},
	} {
		t.Logf("%s vs reference: %.2f%%", c.name, 100*c.e)
		if c.e > c.tol {
			t.Errorf("%s error %.2f%% exceeds %.0f%%", c.name, 100*c.e, 100*c.tol)
		}
	}
}

func TestScaleInvarianceOfCapacitance(t *testing.T) {
	// Capacitance scales linearly with geometry size (C ~ eps * length):
	// doubling every dimension must double C.
	base := NewCrossingPair()
	scaled := base
	scaled.Width *= 2
	scaled.Thickness *= 2
	scaled.Length *= 2
	scaled.H *= 2
	r1, err := Extract(base.Build(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Extract(scaled.Build(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ratio := r2.C.At(0, 1) / r1.C.At(0, 1)
	if math.Abs(ratio-2) > 0.02 {
		t.Errorf("coupling scale ratio = %.4f, want 2 (linear in size)", ratio)
	}
}

func TestMergedVsSeparateBasisAccuracy(t *testing.T) {
	// The ablation behind BuilderOptions.SeparateInduced: both modes must
	// deliver engineering accuracy on the crossing pair; separate mode
	// uses more unknowns.
	st := NewCrossingPair().Build()
	ref, err := ExtractReference(st, 0.35e-6)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := Extract(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sep, err := Extract(st, Options{Basis: BuilderOptions{SeparateInduced: true}})
	if err != nil {
		t.Fatal(err)
	}
	me := CapError(merged.C, ref.C)
	se := CapError(sep.C, ref.C)
	t.Logf("merged: %.2f%% (N=%d), separate: %.2f%% (N=%d)", 100*me, merged.N, 100*se, sep.N)
	if me > 0.08 || se > 0.08 {
		t.Errorf("accuracy regression: merged %.2f%%, separate %.2f%%", 100*me, 100*se)
	}
}
