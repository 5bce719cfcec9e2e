package quad

import (
	"math"
	"testing"
)

func TestGaussPolynomialExactness(t *testing.T) {
	// An n-point rule integrates x^k exactly for k <= 2n-1.
	for n := 1; n <= 12; n++ {
		for k := 0; k <= 2*n-1; k++ {
			got := Integrate1D(func(x float64) float64 {
				return math.Pow(x, float64(k))
			}, -1, 1, n)
			var want float64
			if k%2 == 0 {
				want = 2 / float64(k+1)
			}
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("n=%d k=%d: got %g want %g", n, k, got, want)
			}
		}
	}
}

func TestGaussWeightsSumToTwo(t *testing.T) {
	for n := 1; n <= MaxOrder; n++ {
		r := Gauss(n)
		var s float64
		for _, w := range r.Weights {
			s += w
		}
		if math.Abs(s-2) > 1e-12 {
			t.Errorf("n=%d: weights sum %g", n, s)
		}
		// Nodes sorted and inside (-1, 1).
		for i, x := range r.Nodes {
			if x <= -1 || x >= 1 {
				t.Errorf("n=%d: node %g outside (-1,1)", n, x)
			}
			if i > 0 && x <= r.Nodes[i-1] {
				t.Errorf("n=%d: nodes not increasing", n)
			}
		}
	}
}

func TestGaussSymmetry(t *testing.T) {
	for _, n := range []int{2, 5, 16, 33} {
		r := Gauss(n)
		for i := range r.Nodes {
			j := n - 1 - i
			if math.Abs(r.Nodes[i]+r.Nodes[j]) > 1e-14 {
				t.Errorf("n=%d: nodes %d/%d not symmetric", n, i, j)
			}
			if math.Abs(r.Weights[i]-r.Weights[j]) > 1e-14 {
				t.Errorf("n=%d: weights %d/%d differ", n, i, j)
			}
		}
	}
}

func TestIntegrate1DKnown(t *testing.T) {
	got := Integrate1D(math.Exp, 0, 1, 12)
	want := math.E - 1
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("int exp = %.15g want %.15g", got, want)
	}
	got = Integrate1D(math.Sin, 0, math.Pi, 16)
	if math.Abs(got-2) > 1e-12 {
		t.Errorf("int sin = %.15g want 2", got)
	}
}

func TestIntegrate2DKnown(t *testing.T) {
	// int_0^1 int_0^2 x*y dy dx = (1/2)*(2) = 1... = (1/2)*(4/2)=1.
	got := Integrate2D(func(x, y float64) float64 { return x * y }, 0, 1, 0, 2, 4, 4)
	if math.Abs(got-1) > 1e-13 {
		t.Errorf("int xy = %g want 1", got)
	}
	// Separable exponential.
	got = Integrate2D(func(x, y float64) float64 { return math.Exp(x + y) }, 0, 1, 0, 1, 12, 12)
	want := (math.E - 1) * (math.E - 1)
	if math.Abs(got-want) > 1e-11 {
		t.Errorf("int exp = %g want %g", got, want)
	}
}

func TestIntegrate4D(t *testing.T) {
	got := Integrate4D(func(x, y, xp, yp float64) float64 {
		return x * y * xp * yp
	}, 0, 1, 0, 1, 0, 1, 0, 1, 4)
	want := 1.0 / 16
	if math.Abs(got-want) > 1e-13 {
		t.Errorf("int = %g want %g", got, want)
	}
}

func TestMapped(t *testing.T) {
	xs, ws := make([]float64, 8), make([]float64, 8)
	FillMapped(8, 2, 5, xs, ws)
	var s, m float64
	for i := range xs {
		s += ws[i]
		m += ws[i] * xs[i] * xs[i]
	}
	if math.Abs(s-3) > 1e-12 {
		t.Errorf("weights sum %g want 3", s)
	}
	want := (125.0 - 8.0) / 3
	if math.Abs(m-want) > 1e-12 {
		t.Errorf("int x^2 = %g want %g", m, want)
	}
}

func TestGaussPanics(t *testing.T) {
	for _, n := range []int{0, -1, MaxOrder + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Gauss(%d) did not panic", n)
				}
			}()
			Gauss(n)
		}()
	}
}

func TestGaussCacheConcurrency(t *testing.T) {
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for n := 1; n <= 24; n++ {
				Gauss(n)
			}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
}
