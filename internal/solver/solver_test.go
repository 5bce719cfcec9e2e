package solver

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"parbem/internal/geom"
	"parbem/internal/kernel"
	"parbem/internal/linalg"
	"parbem/internal/op"
)

func TestExtractCrossingPair(t *testing.T) {
	st := geom.DefaultCrossingPair().Build()
	res, err := Extract(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	C := res.C
	if C.Rows != 2 || C.Cols != 2 {
		t.Fatalf("C is %dx%d", C.Rows, C.Cols)
	}
	// Maxwell capacitance matrix structure.
	if C.At(0, 0) <= 0 || C.At(1, 1) <= 0 {
		t.Errorf("diagonal not positive: %g %g", C.At(0, 0), C.At(1, 1))
	}
	if C.At(0, 1) >= 0 {
		t.Errorf("coupling not negative: %g", C.At(0, 1))
	}
	if C.At(0, 1) != C.At(1, 0) {
		t.Error("C not symmetric")
	}
	// Row sums (capacitance to infinity) must be positive.
	for i := 0; i < 2; i++ {
		if C.At(i, 0)+C.At(i, 1) <= 0 {
			t.Errorf("row %d sum non-positive", i)
		}
	}
	// Scale sanity: crossing micron wires couple at O(0.01..1 fF).
	c12 := -C.At(0, 1)
	if c12 < 1e-18 || c12 > 1e-14 {
		t.Errorf("coupling %g F outside physical window", c12)
	}
	if res.N <= 0 || res.M < res.N {
		t.Errorf("bad sizes N=%d M=%d", res.N, res.M)
	}
}

func TestExtractParallelPlates(t *testing.T) {
	// Two 20x20 um plates 0.5 um apart: C ~ eps*A/d plus fringing.
	side := 20e-6
	d := 0.5e-6
	thick := 0.2e-6
	st := &geom.Structure{
		Name: "plates",
		Conductors: []*geom.Conductor{
			{Name: "bot", Boxes: []geom.Box{geom.NewBox(
				geom.Vec3{X: 0, Y: 0, Z: 0}, geom.Vec3{X: side, Y: side, Z: thick})}},
			{Name: "top", Boxes: []geom.Box{geom.NewBox(
				geom.Vec3{X: 0, Y: 0, Z: thick + d}, geom.Vec3{X: side, Y: side, Z: 2*thick + d})}},
		},
	}
	res, err := Extract(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ideal := kernel.Eps0 * side * side / d
	got := -res.C.At(0, 1)
	ratio := got / ideal
	if ratio < 0.9 || ratio > 1.6 {
		t.Errorf("plate capacitance %g F, ideal %g F (ratio %.2f) outside [0.9, 1.6]",
			got, ideal, ratio)
	}
}

func TestBackendsAgree(t *testing.T) {
	st := geom.DefaultCrossingPair().Build()
	serial, err := Extract(st, Options{Backend: Serial})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := Extract(st, Options{Backend: SharedMem, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := Extract(st, Options{Backend: Distributed, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if d := linalg.MaxAbsDiff(serial.C, shared.C); d > ctol(serial.C) {
		t.Errorf("shared differs from serial by %g", d)
	}
	if d := linalg.MaxAbsDiff(serial.C, dist.C); d > ctol(serial.C) {
		t.Errorf("distributed differs from serial by %g", d)
	}
}

// TestExtractDistributedFourRanks: Distributed runs on a network of
// Workers ranks and agrees with the serial fill.
func TestExtractDistributedFourRanks(t *testing.T) {
	st := geom.DefaultCrossingPair().Build()
	res, err := Extract(st, Options{Backend: Distributed, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	serial, _ := Extract(st, Options{})
	if d := linalg.MaxAbsDiff(serial.C, res.C); d > ctol(serial.C) {
		t.Errorf("four-rank result differs by %g", d)
	}
}

func TestExtractBusCouplingStructure(t *testing.T) {
	st := geom.DefaultBus(3, 3).Build()
	res, err := Extract(st, Options{Backend: SharedMem})
	if err != nil {
		t.Fatal(err)
	}
	C := res.C
	if C.Rows != 6 {
		t.Fatalf("C rows = %d", C.Rows)
	}
	// Cross-layer couplings: negative for the unshielded pairs; the
	// center-center crossing is almost completely shielded by its four
	// neighbors, so it may only be required to be negligible relative to
	// the strongest coupling.
	var maxCouple float64
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if i != j && -C.At(i, j) > maxCouple {
				maxCouple = -C.At(i, j)
			}
		}
	}
	for i := 0; i < 3; i++ {
		for j := 3; j < 6; j++ {
			if C.At(i, j) > 0.02*maxCouple {
				t.Errorf("C[%d][%d] = %g, want negative (or negligibly shielded) coupling", i, j, C.At(i, j))
			}
		}
	}
	// Mirror symmetry on the strong entries (self terms and adjacent
	// lateral couplings), within the ~1-2% template integration
	// tolerance; small shielded couplings have larger relative error.
	if rel := relDiff(C.At(0, 0), C.At(2, 2)); rel > 2e-2 {
		t.Errorf("self-cap mirror symmetry broken: %g vs %g", C.At(0, 0), C.At(2, 2))
	}
	if rel := relDiff(C.At(0, 1), C.At(1, 2)); rel > 2e-2 {
		t.Errorf("lateral mirror symmetry broken: %g vs %g", C.At(0, 1), C.At(1, 2))
	}
	// Setup must dominate the runtime (the paper's premise: > 95% in
	// their implementation; we assert a softer bound to stay robust on
	// tiny problems).
	if res.Timing.Setup < res.Timing.Solve {
		t.Errorf("setup (%v) should dominate solve (%v)", res.Timing.Setup, res.Timing.Solve)
	}
}

func TestExtractValidation(t *testing.T) {
	if _, err := Extract(&geom.Structure{Name: "empty"}, Options{}); err == nil {
		t.Error("empty structure must fail")
	}
}

func relDiff(a, b float64) float64 {
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}

// ctol returns the rounding tolerance for comparing capacitance matrices
// produced by different backends (accumulation order differs).
func ctol(m *linalg.Dense) float64 {
	var scale float64
	for _, v := range m.Data {
		if v > scale {
			scale = v
		} else if -v > scale {
			scale = -v
		}
	}
	return 1e-9 * scale
}

// TestCheckSelfCapacitance: a result whose diagonal has a non-positive or
// non-finite entry is an ErrSelfCapacitance naming the first such
// conductor, the count and the inertia; a positive diagonal passes.
func TestCheckSelfCapacitance(t *testing.T) {
	C := linalg.NewDense(4, 4)
	for i := 0; i < 4; i++ {
		C.Set(i, i, 2e-15)
	}
	C.Set(0, 1, 5e-15) // off-diagonal entries are not checked
	if err := checkSelfCapacitance(&op.Result{C: C}); err != nil {
		t.Fatalf("positive diagonal: %v", err)
	}
	for _, bad := range []float64{0, -1e-16, math.NaN(), math.Inf(1)} {
		C.Set(1, 1, bad)
		C.Set(3, 3, -3e-15)
		err := checkSelfCapacitance(&op.Result{C: C, Inertia: linalg.Inertia{Negative: 3, Blocks2x2: 1}})
		if !errors.Is(err, ErrSelfCapacitance) {
			t.Fatalf("C_11 = %g: error %v does not wrap ErrSelfCapacitance", bad, err)
		}
		want := fmt.Sprintf("conductor 1 has C_ii = %g F, 2 of 4 self-capacitances are not positive; inertia 3 negative pivots, 1 2x2 blocks", bad)
		if !strings.Contains(err.Error(), want) {
			t.Errorf("C_11 = %g: error %q, want it to say %q", bad, err, want)
		}
	}
}

// TestExtractBus32SelfCapacitanceError: at the shipped quadrature order
// the 32x32 bus's system matrix has 30 negative pivots and 15 of its 64
// self-capacitances come out non-positive; the extraction is an error, not
// a matrix.
func TestExtractBus32SelfCapacitanceError(t *testing.T) {
	if testing.Short() {
		t.Skip("a 32x32 bus extraction")
	}
	res, err := Extract(geom.DefaultBus(32, 32).Build(), Options{Backend: SharedMem})
	if !errors.Is(err, ErrSelfCapacitance) {
		t.Fatalf("32x32 bus: result %v, error %v; want an ErrSelfCapacitance", res, err)
	}
	t.Log(err)
	if want := "15 of 64 self-capacitances are not positive; inertia 30 negative pivots"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q, want it to say %q", err, want)
	}
}
