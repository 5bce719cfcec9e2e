package par

import (
	"testing"

	"parbem/internal/assembly"
	"parbem/internal/basis"
	"parbem/internal/geom"
	"parbem/internal/linalg"
)

func TestFillMatchesSerial(t *testing.T) {
	st := geom.DefaultCrossingPair().Build()
	set := basis.Build(st, basis.BuilderOptions{})
	in := assembly.NewIntegrator()
	want := assembly.FillSerial(set, in)

	for _, d := range []int{1, 2, 4, 8, 13} {
		got := Fill(set, in, Options{Workers: d})
		if diff := linalg.MaxAbsDiff(got, want.Dense()); diff > tol(want) {
			t.Errorf("workers=%d: parallel fill differs from serial by %g", d, diff)
		}
	}
}

func TestFillDefaultWorkers(t *testing.T) {
	st := geom.DefaultCrossingPair().Build()
	set := basis.Build(st, basis.BuilderOptions{})
	in := assembly.NewIntegrator()
	got := Fill(set, in, Options{})
	want := assembly.FillSerial(set, in)
	if diff := linalg.MaxAbsDiff(got, want.Dense()); diff > tol(want) {
		t.Errorf("default workers differ from serial by %g", diff)
	}
}

// tol returns the rounding tolerance for comparing fills: partition
// boundaries can reorder the accumulation of a multi-template basis
// function's contributions.
func tol(m *linalg.Sym) float64 {
	var scale float64
	for _, v := range m.Data {
		if v > scale {
			scale = v
		} else if -v > scale {
			scale = -v
		}
	}
	return 1e-12 * scale
}
