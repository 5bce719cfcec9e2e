package extract

import (
	"math"
	"sort"
	"testing"

	"parbem/internal/geom"
)

func smallSpec() geom.CrossingPairSpec {
	return geom.CrossingPairSpec{
		Width:     1e-6,
		Thickness: 0.5e-6,
		Length:    8e-6,
		H:         0.5e-6,
	}
}

func TestCrossingProfileShape(t *testing.T) {
	sp := smallSpec()
	prof, err := CrossingProfile(sp, 0.4e-6)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.U) < 10 {
		t.Fatalf("profile too coarse: %d bins", len(prof.U))
	}
	// Positions sorted.
	for i := 1; i < len(prof.U); i++ {
		if prof.U[i] <= prof.U[i-1] {
			t.Fatal("profile positions not sorted")
		}
	}
	// Induced charge on the grounded target is negative everywhere under
	// a positive source.
	for i, r := range prof.Rho {
		if r >= 0 {
			t.Fatalf("induced density at u=%g is %g, want negative", prof.U[i], r)
		}
	}
	// Magnitude peaks near the crossing (center) and decays toward the
	// ends (paper Figure 2's bump).
	mid := math.Abs(prof.Rho[sort.SearchFloat64s(prof.U, 0)])
	end := math.Abs(prof.Rho[0])
	if mid <= end {
		t.Errorf("no charge crowding: |rho(0)| = %g <= |rho(end)| = %g", mid, end)
	}
}

func TestFitArchFindsBump(t *testing.T) {
	sp := smallSpec()
	prof, err := CrossingProfile(sp, 0.4e-6)
	if err != nil {
		t.Fatal(err)
	}
	fit, err := FitArch(prof, sp)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Peak) <= math.Abs(fit.Flat) {
		t.Errorf("peak %g not above plateau %g", fit.Peak, fit.Flat)
	}
	// Peak inside the crossing neighborhood.
	if math.Abs(fit.PeakPos) > sp.Width/2+sp.H+1e-9 {
		t.Errorf("peak at %g outside crossing region", fit.PeakPos)
	}
	// Decay length on the physical scale of the separation: between
	// h/10 and 10h.
	if fit.Decay < sp.H/10 || fit.Decay > 10*sp.H {
		t.Errorf("decay %g not on the h scale (h=%g)", fit.Decay, sp.H)
	}
}

func TestSweepHMonotonicity(t *testing.T) {
	// b(h): weaker induced peak for larger separation (paper Figure 2's
	// parameter dependence).
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	base := smallSpec()
	fits, err := sweep(base, []float64{0.3e-6, 0.6e-6, 1.2e-6}, 0.4e-6)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(fits); i++ {
		if math.Abs(fits[i].Peak) >= math.Abs(fits[i-1].Peak) {
			t.Errorf("peak magnitude not decreasing with h: %g -> %g",
				fits[i-1].Peak, fits[i].Peak)
		}
	}
}
