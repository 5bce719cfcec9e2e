package op

import (
	"testing"
)

// stubMirror is a mirror-capable operator that computes nothing: it
// records whether a pipeline asked for its float32 mirror.
type stubMirror struct {
	n     int
	mixed bool
}

func (s *stubMirror) Dim() int               { return s.n }
func (s *stubMirror) Apply(dst, x []float64) { copy(dst, x) }
func (s *stubMirror) EnableMixed()           { s.mixed = true }
func (s *stubMirror) MixedEnabled() bool     { return s.mixed }
func (s *stubMirror) ApplyMixed(dst, x []float64) {
	copy(dst, x)
}

// TestPrecisionString pins the names the wire reports (the
// "precision" of serve.ExtractResponse).
func TestPrecisionString(t *testing.T) {
	for p, want := range map[Precision]string{
		PrecisionAuto: "auto", PrecisionFP64: "fp64", PrecisionMixed: "mixed", 7: "Precision(7)",
	} {
		if got := p.String(); got != want {
			t.Errorf("Precision(%d).String() = %q, want %q", int(p), got, want)
		}
	}
}

// TestPipelineMixedMatchesFP64 runs the same extraction in both
// precisions on each accelerated backend: the refined mixed solve must
// reproduce the fp64 capacitance matrix to well within the consistency
// budget (the refinement loop converges on true fp64 residuals, so the
// remaining difference is bounded by the Krylov tolerance, not by fp32).
func TestPipelineMixedMatchesFP64(t *testing.T) {
	spec := busSpec(t, 4, 4, 1e-6)
	for _, backend := range []Backend{BackendFMM, BackendPFFT} {
		ref, err := newPipeline(spec, Options{Backend: backend, Tol: 1e-6, Precision: PrecisionFP64})
		if err != nil {
			t.Fatal(err)
		}
		if ref.Precision() != PrecisionFP64 {
			t.Fatalf("%v: forced fp64 resolved to %v", backend, ref.Precision())
		}
		rres, err := extract(ref)
		if err != nil {
			t.Fatal(err)
		}
		mix, err := newPipeline(spec, Options{Backend: backend, Tol: 1e-6, Precision: PrecisionMixed})
		if err != nil {
			t.Fatal(err)
		}
		if mix.Precision() != PrecisionMixed {
			t.Fatalf("%v: forced mixed resolved to %v", backend, mix.Precision())
		}
		mres, err := extract(mix)
		if err != nil {
			t.Fatal(err)
		}
		if mres.Precision != PrecisionMixed || rres.Precision != PrecisionFP64 {
			t.Fatalf("%v: result precisions %v / %v", backend, mres.Precision, rres.Precision)
		}
		if d := capDiff(mres, rres); !(d <= 5e-5) {
			t.Errorf("%v: mixed vs fp64 capacitance diff %.3e", backend, d)
		} else {
			t.Logf("%v: mixed vs fp64 capacitance diff %.3e (iters %d vs %d)",
				backend, d, mres.Iterations, rres.Iterations)
		}
	}
}

// TestPipelineAutoPrecision pins what auto resolves to: fp64, whatever
// the size — a mirror-capable operator of 4096 unknowns built with
// zero-value Options must not have its float32 mirror enabled (it was,
// from 2048 panels up, while the cost model decided) — and the mirror
// still runs when asked for by name. Dense backends have no mirror.
func TestPipelineAutoPrecision(t *testing.T) {
	small := busSpec(t, 2, 2, 1e-6)
	big := small
	for len(big.Panels) < 4096 {
		big.Panels = append(big.Panels, small.Panels...)
	}
	big.Panels = big.Panels[:4096:4096]
	for _, tc := range []struct {
		opt  Options
		want Precision
	}{
		{Options{}, PrecisionFP64},
		{Options{Precision: PrecisionFP64}, PrecisionFP64},
		{Options{Precision: PrecisionMixed}, PrecisionMixed},
	} {
		a := &stubMirror{n: len(big.Panels)}
		p, err := NewWithOperator(big, a, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		if p.Precision() != tc.want || a.mixed != (tc.want == PrecisionMixed) {
			t.Errorf("Precision %v on a %d-unknown mirror-capable operator: resolved %v (mirror built: %v), want %v",
				tc.opt.Precision, a.n, p.Precision(), a.mixed, tc.want)
		}
	}

	p, err := newPipeline(small, Options{Backend: BackendFMM})
	if err != nil {
		t.Fatal(err)
	}
	if p.Precision() != PrecisionFP64 {
		t.Errorf("small fmm pipeline resolved to %v, want fp64", p.Precision())
	}
	d, err := newPipeline(small, Options{Backend: BackendDense, Precision: PrecisionMixed})
	if err != nil {
		t.Fatal(err)
	}
	if d.Precision() != PrecisionFP64 {
		t.Errorf("dense pipeline resolved to %v, want fp64 (no mirror)", d.Precision())
	}
}

// TestPipelineMixedTightTolerance forces mixed precision at a tolerance
// below the fp32 noise floor: the refinement loop must detect the stall
// and finish in full fp64, still converging to the requested residual.
func TestPipelineMixedTightTolerance(t *testing.T) {
	spec := busSpec(t, 4, 4, 1e-6)
	ref, err := newPipeline(spec, Options{Backend: BackendFMM, Tol: 1e-10, Precision: PrecisionFP64})
	if err != nil {
		t.Fatal(err)
	}
	rres, err := extract(ref)
	if err != nil {
		t.Fatal(err)
	}
	mix, err := newPipeline(spec, Options{Backend: BackendFMM, Tol: 1e-10, Precision: PrecisionMixed})
	if err != nil {
		t.Fatal(err)
	}
	mres, err := extract(mix)
	if err != nil {
		t.Fatalf("mixed solve at tight tolerance failed: %v", err)
	}
	if d := capDiff(mres, rres); !(d <= 1e-8) {
		t.Errorf("tight-tolerance mixed vs fp64 diff %.3e", d)
	}
}
