package costmodel

import (
	"math"
	"testing"
)

func TestAnchorsReproduced(t *testing.T) {
	cases := []struct {
		m Model
		d int
		e float64
	}{
		{ParallelPFFT, 8, 0.42},
		{ParallelFMM, 8, 0.65},
		{ThisWorkOpenMP, 4, 0.91},
		{ThisWorkMPI, 10, 0.89},
	}
	for _, c := range cases {
		if got := c.m.Efficiency(c.d); math.Abs(got-c.e) > 1e-12 {
			t.Errorf("%s: E(%d) = %g want %g", c.m.Name, c.d, got, c.e)
		}
	}
}

func TestEfficiencyMonotoneDecreasing(t *testing.T) {
	for _, m := range []Model{ParallelPFFT, ParallelFMM, ThisWorkOpenMP, ThisWorkMPI} {
		prev := 1.1
		for d := 1; d <= 16; d++ {
			e := m.Efficiency(d)
			if e <= 0 || e > 1 {
				t.Fatalf("%s: E(%d) = %g out of range", m.Name, d, e)
			}
			if e >= prev {
				t.Fatalf("%s: E not decreasing at %d", m.Name, d)
			}
			prev = e
		}
	}
}

func TestOrderingMatchesFigure8(t *testing.T) {
	// At every node count >= 2: this-work curves above FMM above pFFT.
	for d := 2; d <= 10; d++ {
		omp := ThisWorkOpenMP.Efficiency(d)
		mpi := ThisWorkMPI.Efficiency(d)
		fmm := ParallelFMM.Efficiency(d)
		pfft := ParallelPFFT.Efficiency(d)
		if !(omp > fmm && mpi > fmm && fmm > pfft) {
			t.Fatalf("d=%d: ordering broken: omp=%.3f mpi=%.3f fmm=%.3f pfft=%.3f",
				d, omp, mpi, fmm, pfft)
		}
	}
}

// TestSpeedupAndCurve checks the MPI curve's speedup d * Efficiency(d):
// 1 at one node, and paper Table 3's 8.91x at 10 nodes.
func TestSpeedupAndCurve(t *testing.T) {
	m := ThisWorkMPI
	if s := m.Efficiency(1); s != 1 {
		t.Errorf("speedup at 1 node = %g", s)
	}
	if s := 10 * m.Efficiency(10); math.Abs(s-8.9) > 0.05 {
		t.Errorf("speedup at 10 nodes = %g, want ~8.9", s)
	}
}

func TestCalibrateGammaEdgeCases(t *testing.T) {
	if CalibrateGamma(1, 0.5) != 0 || CalibrateGamma(8, 0) != 0 || CalibrateGamma(8, 1) != 0 {
		t.Error("edge cases should return 0")
	}
}
