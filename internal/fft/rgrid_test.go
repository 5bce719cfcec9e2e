package fft

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"parbem/internal/sched"
)

// fillRandReal fills a grid's real samples (the padded spectral slots
// stay zero).
func fillRandReal[T float](rng *rand.Rand, g *RGrid[T]) {
	for ix := 0; ix < g.Nx; ix++ {
		for iy := 0; iy < g.Ny; iy++ {
			for iz := 0; iz < g.Nz; iz++ {
				g.Data[g.RIdx(ix, iy, iz)] = T(rng.NormFloat64())
			}
		}
	}
}

// samples copies a grid's real samples into a dense float64 array,
// index (ix*Ny + iy)*Nz + iz — the oracles' layout.
func samples[T float](g *RGrid[T]) []float64 {
	out := make([]float64, 0, g.Nx*g.Ny*g.Nz)
	for ix := 0; ix < g.Nx; ix++ {
		for iy := 0; iy < g.Ny; iy++ {
			for iz := 0; iz < g.Nz; iz++ {
				out = append(out, float64(g.Data[g.RIdx(ix, iy, iz)]))
			}
		}
	}
	return out
}

// naiveDFT3 is the full 3-D spectrum of dense real data: naiveDFT
// along z, then y, then x.
func naiveDFT3(f []float64, nx, ny, nz int) []complex128 {
	x := make([]complex128, len(f))
	for i, v := range f {
		x[i] = complex(v, 0)
	}
	axis := func(n, stride int, start func(line int) int, lines int) {
		buf := make([]complex128, n)
		for l := 0; l < lines; l++ {
			p := start(l)
			for i := range buf {
				buf[i] = x[p+i*stride]
			}
			for i, v := range naiveDFT(buf) {
				x[p+i*stride] = v
			}
		}
	}
	axis(nz, 1, func(l int) int { return l * nz }, nx*ny)
	axis(ny, nz, func(l int) int { return (l/nz)*ny*nz + l%nz }, nx*nz)
	axis(nx, ny*nz, func(l int) int { return l }, ny*nz)
	return x
}

// directConvolve is the O(n^2) circular convolution of dense real
// data: out[i] = sum_j f[j] k[(i - j) mod (Nx, Ny, Nz)].
func directConvolve(f, k []float64, nx, ny, nz int) []float64 {
	out := make([]float64, len(f))
	idx := func(ix, iy, iz int) int { return (ix*ny+iy)*nz + iz }
	for ix := 0; ix < nx; ix++ {
		for iy := 0; iy < ny; iy++ {
			for iz := 0; iz < nz; iz++ {
				var s float64
				for jx := 0; jx < nx; jx++ {
					for jy := 0; jy < ny; jy++ {
						for jz := 0; jz < nz; jz++ {
							s += f[idx(jx, jy, jz)] * k[idx((ix-jx+nx)%nx, (iy-jy+ny)%ny, (iz-jz+nz)%nz)]
						}
					}
				}
				out[idx(ix, iy, iz)] = s
			}
		}
	}
	return out
}

func maxAbs(v []float64) float64 {
	var m float64
	for _, x := range v {
		m = math.Max(m, math.Abs(x))
	}
	return m
}

var rgridDims = [][3]int{
	{1, 1, 2}, {1, 1, 8}, {2, 2, 2}, {4, 4, 4}, {8, 4, 16}, {2, 8, 4}, {16, 2, 2},
}

func TestSpectrumMatchesNaiveDFT(t *testing.T) {
	bothWidths(t, testSpectrumMatchesNaiveDFT[float64], testSpectrumMatchesNaiveDFT[float32])
}

// testSpectrumMatchesNaiveDFT pins the half spectrum to the per-axis
// O(n^2) transform of the same real data, twice over: bin (ix, iy, k),
// k <= Nz/2, must match the full spectrum's bin, and — the invariant
// the half spectrum relies on — be the conjugate of the full spectrum's
// mirror bin (-ix, -iy, -k), so the dropped z half is exactly the
// conjugate mirror of the stored half.
func testSpectrumMatchesNaiveDFT[T float](t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	mod := func(i, n int) int { return ((i % n) + n) % n }
	for _, dim := range rgridDims {
		nx, ny, nz := dim[0], dim[1], dim[2]
		g := newRGrid[T](nx, ny, nz)
		fillRandReal(rng, g)
		full := naiveDFT3(samples(g), nx, ny, nz)
		g.ForwardReal()
		eps := tol[T](1e-11, 1e-4)
		for ix := 0; ix < nx; ix++ {
			for iy := 0; iy < ny; iy++ {
				for k := 0; k < g.Hz; k++ {
					re := float64(g.Data[g.RIdx(ix, iy, 2*k)])
					im := float64(g.Data[g.RIdx(ix, iy, 2*k+1)])
					want := full[(ix*ny+iy)*nz+k]
					if math.Abs(re-real(want)) > eps || math.Abs(im-imag(want)) > eps {
						t.Fatalf("dims %v bin (%d,%d,%d): (%g,%g) want %v", dim, ix, iy, k, re, im, want)
					}
					mirror := full[(mod(-ix, nx)*ny+mod(-iy, ny))*nz+mod(-k, nz)]
					if math.Abs(re-real(mirror)) > eps || math.Abs(im+imag(mirror)) > eps {
						t.Fatalf("dims %v conjugate symmetry broken at (%d,%d,%d): (%g,%g) vs mirror %v",
							dim, ix, iy, k, re, im, mirror)
					}
				}
			}
		}
	}
}

func TestRoundtrip(t *testing.T) {
	bothWidths(t, testRoundtrip[float64], testRoundtrip[float32])
}

// testRoundtrip pins ForwardReal+InverseReal to the identity.
func testRoundtrip[T float](t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, dim := range rgridDims {
		g := newRGrid[T](dim[0], dim[1], dim[2])
		fillRandReal(rng, g)
		orig := samples(g)
		g.ForwardReal()
		g.InverseReal()
		for i, v := range samples(g) {
			if math.Abs(v-orig[i]) > tol[T](1e-12, 1e-5) {
				t.Fatalf("dims %v roundtrip[%d] = %g want %g", dim, i, v, orig[i])
			}
		}
	}
}

func TestConvolveMatchesDirect(t *testing.T) {
	bothWidths(t, testConvolveMatchesDirect[float64], testConvolveMatchesDirect[float32])
}

// testConvolveMatchesDirect is the headline property test: the fused
// r2c convolution must match the direct O(n^2) circular convolution on
// random real grids and kernels.
func testConvolveMatchesDirect[T float](t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, dim := range rgridDims {
		nx, ny, nz := dim[0], dim[1], dim[2]
		g, kh := newRGrid[T](nx, ny, nz), newRGrid[T](nx, ny, nz)
		fillRandReal(rng, g)
		fillRandReal(rng, kh)
		want := directConvolve(samples(g), samples(kh), nx, ny, nz)
		kh.ForwardReal()
		g.ConvolveInto(kh)
		eps := tol[T](1e-12, 1e-4) * math.Max(1, maxAbs(want))
		for i, got := range samples(g) {
			if math.Abs(got-want[i]) > eps {
				t.Fatalf("dims %v conv[%d] = %g want %g", dim, i, got, want[i])
			}
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	bothWidths(t, testParallelMatchesSerial[float64], testParallelMatchesSerial[float32])
}

// testParallelMatchesSerial pins the executor-parallel transforms to
// the serial path bit for bit: every line runs the same kernel, so
// chunking must not change a single ulp.
func testParallelMatchesSerial[T float](t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	pool := sched.NewPool(4)
	defer pool.Close()
	for _, dim := range [][3]int{{4, 4, 4}, {8, 16, 32}, {16, 8, 8}} {
		ser := newRGrid[T](dim[0], dim[1], dim[2])
		par := newRGrid[T](dim[0], dim[1], dim[2])
		par.Exec = pool
		kh := newRGrid[T](dim[0], dim[1], dim[2])
		fillRandReal(rng, ser)
		copy(par.Data, ser.Data)
		fillRandReal(rng, kh)
		kh.ForwardReal()

		ser.ConvolveInto(kh)
		par.ConvolveInto(kh)
		for i := range ser.Data {
			if ser.Data[i] != par.Data[i] {
				t.Fatalf("dims %v parallel convolution differs at %d: %g vs %g",
					dim, i, par.Data[i], ser.Data[i])
			}
		}
	}
}

// TestConvolvePinnedParent pins the float64 engine to the complex128
// engine it replaced: the digest below is of RGrid3.ConvolveInto output
// at commit 8fd6d65, every element compared by its bits. Only the sign
// of an exact zero is normalised: the old kernel scaled by multiplying
// with complex(s, 0), whose 0*x terms can flip it, and no add/multiply
// chain downstream can turn that into a nonzero difference.
func TestConvolvePinnedParent(t *testing.T) {
	const parent = "51640f2fad49321bae4da8fa491a7739e364e976f768086d4b1b5cf16694d375"
	rng := rand.New(rand.NewSource(20260927))
	g, kh := NewRGrid3(16, 8, 32), NewRGrid3(16, 8, 32)
	fillRandReal(rng, g)
	fillRandReal(rng, kh)
	kh.ForwardReal()
	g.ConvolveInto(kh)
	h := sha256.New()
	var b [8]byte
	for _, v := range g.Data {
		if v == 0 {
			v = 0 // -0 -> +0
		}
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != parent {
		t.Fatalf("ConvolveInto digest %s, parent commit's %s", got, parent)
	}
}

func TestBadDimsPanic(t *testing.T) {
	bothWidths(t, testBadDimsPanic[float64], testBadDimsPanic[float32])
}

// testBadDimsPanic pins the constructor's power-of-two check and the
// dimension check of the fused convolve path.
func testBadDimsPanic[T float](t *testing.T) {
	mustPanic := func(what string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("expected panic for %s", what)
			}
		}()
		f()
	}
	mustPanic("non-power-of-two dimension", func() { newRGrid[T](4, 12, 4) })
	mustPanic("Nz < 2", func() { newRGrid[T](4, 4, 1) })
	mustPanic("mismatched kernel dims", func() { newRGrid[T](4, 4, 4).ConvolveInto(newRGrid[T](4, 4, 8)) })
}

func TestConvolveAllocFree(t *testing.T) {
	bothWidths(t, testConvolveAllocFree[float64], testConvolveAllocFree[float32])
}

// testConvolveAllocFree proves the warm fused convolution allocates
// nothing in serial mode, and only constant scheduler bookkeeping when
// parallel (the precedent bound of the pfft Apply loops).
func testConvolveAllocFree[T float](t *testing.T) {
	kh := newRGrid[T](8, 8, 16)
	kh.Data[kh.RIdx(0, 0, 0)] = 1
	kh.ForwardReal()

	ser := newRGrid[T](8, 8, 16)
	ser.ConvolveInto(kh) // warm
	if allocs := testing.AllocsPerRun(10, func() {
		ser.ConvolveInto(kh)
	}); allocs != 0 {
		t.Fatalf("serial ConvolveInto allocates %.0f objects per call", allocs)
	}

	pool := sched.NewPool(4)
	defer pool.Close()
	par := newRGrid[T](8, 8, 16)
	par.Exec = pool
	par.ConvolveInto(kh)
	if allocs := testing.AllocsPerRun(10, func() {
		par.ConvolveInto(kh)
	}); allocs > 200 {
		t.Fatalf("pooled ConvolveInto allocates %.0f objects per call; line loops are no longer allocation-free", allocs)
	}
}
