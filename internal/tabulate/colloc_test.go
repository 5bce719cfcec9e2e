package tabulate

import (
	"math"
	"math/rand"
	"testing"

	"parbem/internal/kernel"
)

func TestCollocationMatchesClosedForm(t *testing.T) {
	tab := NewCollocation(CollocationSpec{})
	rng := rand.New(rand.NewSource(3))
	var maxRel float64
	checked := 0
	for i := 0; i < 20000; i++ {
		// Random rectangle and a point in the tabulated neighborhood.
		w := 0.5e-6 + 4e-6*rng.Float64()
		h := w * (0.15 + 0.85*rng.Float64())
		u1 := (rng.Float64() - 0.5) * 1e-5
		v1 := (rng.Float64() - 0.5) * 1e-5
		pu := u1 + (rng.Float64()*8-3.5)*w
		pv := v1 + (rng.Float64()*8-3.5)*w
		pz := (rng.Float64()*3 + 0.16) * w * sign(rng)
		got, ok := tab.EvalCoords(u1, u1+w, v1, v1+h, pu, pv, pz)
		if !ok {
			continue
		}
		want := kernel.RectPotential(u1, u1+w, v1, v1+h, pu, pv, pz)
		if rel := math.Abs(got-want) / math.Abs(want); rel > maxRel {
			maxRel = rel
		}
		checked++
	}
	if checked < 5000 {
		t.Fatalf("only %d of 20000 probes landed in domain", checked)
	}
	t.Logf("%d in-domain probes, max relative interpolation error %.4f%%", checked, 100*maxRel)
	if maxRel > 0.02 {
		t.Errorf("interpolation error %.2f%% exceeds 2%%", 100*maxRel)
	}
}

func sign(rng *rand.Rand) float64 {
	if rng.Intn(2) == 0 {
		return -1
	}
	return 1
}

func TestCollocationOutOfDomainFallsBack(t *testing.T) {
	tab := NewCollocation(CollocationSpec{})
	cases := []struct {
		name                       string
		u1, u2, v1, v2, pu, pv, pz float64
	}{
		{"aspect too thin", 0, 10, 0, 0.1, 5, 0.05, 1},
		{"z under gate", 0, 1, 0, 1, 0.5, 0.5, 0.01},
		{"z beyond range", 0, 1, 0, 1, 0.5, 0.5, 6},
		{"x beyond range", 0, 1, 0, 1, -6, 0.5, 1},
		{"degenerate rect", 0, 0, 0, 0, 0.5, 0.5, 1},
	}
	for _, c := range cases {
		if _, ok := tab.EvalCoords(c.u1, c.u2, c.v1, c.v2, c.pu, c.pv, c.pz); ok {
			t.Errorf("%s: expected out-of-domain", c.name)
		}
	}
}

func TestCollocationAxisSwapSymmetry(t *testing.T) {
	tab := NewCollocation(CollocationSpec{})
	// A tall rectangle is evaluated by swapping onto the canonical
	// orientation; the result must match the closed form just as well.
	got, ok := tab.EvalCoords(0, 1e-6, 0, 3e-6, 0.5e-6, 1e-6, 1e-6)
	if !ok {
		t.Fatal("query unexpectedly out of domain")
	}
	want := kernel.RectPotential(0, 1e-6, 0, 3e-6, 0.5e-6, 1e-6, 1e-6)
	if rel := math.Abs(got-want) / want; rel > 0.02 {
		t.Errorf("swapped-orientation error %.2f%%", 100*rel)
	}
}
