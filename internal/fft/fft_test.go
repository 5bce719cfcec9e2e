package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// The package's test oracles (naiveDFT here, naiveDFT3 and
// directConvolve in rgrid_test.go) share nothing with the engine: no
// tables, no butterflies, no half-spectrum layout. They work in float64
// whatever width the engine under test runs at.

// naiveDFT is the O(n^2) reference.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(j) * float64(k) / float64(n)
			s += x[j] * cmplx.Exp(complex(0, ang))
		}
		out[k] = s
	}
	return out
}

// bothWidths runs one generic test body on both instantiations.
func bothWidths(t *testing.T, fp64, fp32 func(*testing.T)) {
	t.Run("fp64", fp64)
	t.Run("fp32", fp32)
}

// tol picks the tolerance of the width under test.
func tol[T float](fp64, fp32 float64) float64 {
	if _, ok := any(T(0)).(float32); ok {
		return fp32
	}
	return fp64
}

func TestTransformMatchesNaiveDFT(t *testing.T) {
	bothWidths(t, testTransformMatchesNaiveDFT[float64], testTransformMatchesNaiveDFT[float32])
}

// testTransformMatchesNaiveDFT checks the 1-D kernel against the O(n^2)
// sum (relative error summed over the line: rounding level of T, which
// the float64-computed twiddles keep even at the longest pfft line),
// then the scaled inverse against the input.
func testTransformMatchesNaiveDFT[T float](t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 64, 256} {
		x := make([]T, 2*n)
		ref := make([]complex128, n)
		for i := range x {
			x[i] = T(rng.NormFloat64())
		}
		for i := range ref {
			ref[i] = complex(float64(x[2*i]), float64(x[2*i+1]))
		}
		want := naiveDFT(ref)
		tab := tablesFor[T](n)
		y := bitReversed(x, tab.rev)
		transform(y, tab.fwd, 1)
		var num, den float64
		for i := range want {
			num += cmplx.Abs(complex(float64(y[2*i]), float64(y[2*i+1])) - want[i])
			den += cmplx.Abs(want[i])
		}
		if rel := num / den; !(rel <= tol[T](1e-12, 2e-6)) {
			t.Errorf("n=%d: forward relative error %.3g", n, rel)
		}
		y = bitReversed(y, tab.rev)
		transform(y, tab.inv, 1/T(n))
		for i := range y {
			if d := math.Abs(float64(y[i] - x[i])); d > tol[T](1e-12, 1e-5) {
				t.Fatalf("n=%d: round-trip error %.3g at slot %d", n, d, i)
			}
		}
	}
}

// bitReversed copies a line of (re, im) pairs into the order transform
// takes it in.
func bitReversed[T float](x []T, rev []int32) []T {
	y := make([]T, len(x))
	for i, r := range rev {
		y[2*r], y[2*r+1] = x[2*i], x[2*i+1]
	}
	return y
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 100: 128, 128: 128}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d want %d", in, got, want)
		}
	}
	if !IsPow2(64) || IsPow2(0) || IsPow2(12) {
		t.Error("IsPow2 wrong")
	}
}
