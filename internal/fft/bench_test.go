package fft

import (
	"math/rand"
	"testing"
)

// benchDims is a pfft-representative padded grid (the 4x4 bus at
// N=1088 pads to 64x64x32).
const benchNx, benchNy, benchNz = 64, 64, 32

// BenchmarkConvolve measures the fused grid convolution at both widths.
func BenchmarkConvolve(b *testing.B) {
	b.Run("r2c-fp64", benchConvolve[float64])
	b.Run("r2c-fp32", benchConvolve[float32])
}

func benchConvolve[T float](b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	g := newRGrid[T](benchNx, benchNy, benchNz)
	kh := newRGrid[T](benchNx, benchNy, benchNz)
	fillRandReal(rng, g)
	fillRandReal(rng, kh)
	kh.ForwardReal()
	g.ConvolveInto(kh)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ConvolveInto(kh)
	}
}

// BenchmarkForward1D measures the 1-D kernel on a typical grid-edge
// length.
func BenchmarkForward1D(b *testing.B) {
	b.Run("fp64", benchForward1D[float64])
	b.Run("fp32", benchForward1D[float32])
}

func benchForward1D[T float](b *testing.B) {
	x := make([]T, 2*64)
	for i := range x {
		x[i] = T(i % 7)
	}
	tab := tablesFor[T](len(x) / 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		transform(x, tab.fwd, 1)
	}
}
