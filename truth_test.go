package parbem

import (
	"math"
	"testing"

	"parbem/internal/kernel"
)

// cubeCapacitance is the capacitance of the unit cube in units of 4πε₀a:
// 0.660678, known to about 1e-6 (Read, J. Comput. Phys. 1997, by boundary
// element extrapolation; Hwang & Mascagni, J. Appl. Phys. 2004, by random
// walks). It depends on the geometry alone, not on any discretization.
const cubeCapacitance = 0.660678

// cubeError returns the relative error of the self-capacitance of a cube
// of edge a, solved with panels of edge a/n, against cubeCapacitance.
func cubeError(t *testing.T, n int, opt PipelineOptions) float64 {
	t.Helper()
	const a = 1e-6
	st := &Structure{Name: "cube", Conductors: []*Conductor{
		{Name: "cube", Boxes: []Box{NewBox(Vec3{}, Vec3{X: a, Y: a, Z: a})}},
	}}
	res, err := ExtractPipeline(st, a/float64(n), opt)
	if err != nil {
		t.Fatal(err)
	}
	if want := 6 * n * n; res.NumPanels != want {
		t.Fatalf("a/%d: %d panels, want %d", n, res.NumPanels, want)
	}
	return res.C.At(0, 0)/(kernel.FourPi*kernel.Eps0*a*cubeCapacitance) - 1
}

// TestCubeCapacitanceTruth holds the dense reference to the physics rather
// than to a stored matrix: the unit cube's capacitance at a/8 within
// 3.5e-3 of the published value (it reads −3.27e-3: uniform panels
// underestimate the edge singularities of the charge), and the error
// falling between a/4 and a/8 at an observed order in h between 1 and 1.6
// (it reads 1.20). Outside -short, a/16 through the multipole backend must
// be nearer still.
func TestCubeCapacitanceTruth(t *testing.T) {
	dense := PipelineOptions{Backend: BackendDense, Direct: true}
	e4, e8 := cubeError(t, 4, dense), cubeError(t, 8, dense)
	order := math.Log2(e4 / e8)
	t.Logf("cube, dense: error %.3e at a/4, %.3e at a/8, observed order %.2f", e4, e8, order)
	if !(math.Abs(e8) <= 3.5e-3) {
		t.Errorf("a/8: relative error %.3e against the published value, limit 3.5e-3", e8)
	}
	if !(order >= 1 && order <= 1.6) {
		t.Errorf("observed order %.2f between a/4 and a/8, want it in [1, 1.6]", order)
	}
	if testing.Short() {
		return
	}
	e16 := cubeError(t, 16, PipelineOptions{Backend: BackendFMM, Tol: 1e-6})
	t.Logf("cube, fmm: error %.3e at a/16", e16)
	if !(math.Abs(e16) <= 2e-3 && math.Abs(e16) < math.Abs(e8)) {
		t.Errorf("a/16 through fmm: relative error %.3e, want it below 2e-3 and a/8's %.3e", e16, e8)
	}
}
