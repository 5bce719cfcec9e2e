// Package fft is the convolution engine of the precorrected-FFT
// baseline (internal/pfft): one real-input 3-D convolution grid,
// RGrid[T], instantiated at float64 (RGrid3) and float32 (RGrid3F32)
// from the same code — one table-driven radix-2 kernel, one r2c/c2r
// line pair, one table cache. The standard library has no FFT, so this
// is built from scratch.
//
// # Real-input convolution contract
//
// The grid data pfft convolves is real (charges projected onto grid
// nodes, potentials read back), so an RGrid stores an Nx x Ny x Nz real
// grid and transforms it r2c along z via conjugate symmetry into
// Hz = Nz/2+1 complex bins, then c2c along y and x over the Hz
// half-planes. Compared to a complex-to-complex transform of the same
// grid this halves the transform flops, the grid memory and the
// kernel-spectrum storage. ConvolveInto fuses the full circular
// convolution (forward, pointwise spectral multiply, inverse) in one
// call; the 1/n inverse scaling is folded into the final butterfly
// stage of each axis rather than a separate sweep over the data.
//
// # Half-spectrum layout
//
// A grid line (ix, iy) occupies Nz+2 slots of T. In real space the
// first Nz are the samples f(ix, iy, 0..Nz-1); after ForwardReal the
// same slots hold the Hz half-spectrum bins X[0..Nz/2] as (re, im)
// pairs — X[k] for k > Nz/2 is implied by the conjugate symmetry
// X[Nz-k] = conj(X[k]) of real input. X[0] and X[Nz/2] are real.
//
// # Precision
//
// Complex values are explicit (re, im) pairs of T rather than
// complex64/complex128: Go cannot take real/imag of a type parameter,
// and gc lowers complex64 multiplication through float64 (widen,
// multiply, narrow), which made a complex64 kernel slower than the
// float64 one it exists to beat. Both widths run the same operations
// in the same order; the float64 instantiation reproduces complex128
// arithmetic exactly, the float32 one differs from it by fp32 rounding
// of the butterflies only (roots of unity are computed in float64 and
// rounded once) — about 1e-7 relative on the grid sizes pfft uses, far
// below the iterative-refinement tolerance that consumes the result.
//
// # Parallelism model
//
// Each 3-D transform is Nx*Ny (z), Nx*Hz (y) and Ny*Hz (x) independent
// 1-D line transforms. When a grid's Exec executor is set, the line
// loops and the pointwise spectral multiply are chunked over it, each
// line task with a line buffer of the grid's own; results are
// bit-identical to the serial path regardless of scheduling (every
// line is transformed by the same kernel). With Exec nil everything
// runs inline and the warm paths are allocation-free. A grid serves one
// transform at a time.
package fft

import (
	"math"
	"math/bits"
	"sync"
)

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// NextPow2 returns the smallest power of two >= n.
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// float is the set of sample widths the engine is instantiated at.
type float interface{ float32 | float64 }

// tables holds what a length-n line transform looks up: the
// bit-reversal permutation, applied while a line is gathered into its
// buffer, and the roots of unity of the forward (-) and inverse (+)
// direction as (re, im) pairs, laid out stage by stage so that every
// butterfly stage reads its roots contiguously: the stage whose
// butterflies pair values half apart holds exp(-+2 pi i k / (2 half)),
// k in [0, half), at slots [2(half-1), 2(2 half-1)). The last stage,
// slots [n-2, 2n-2), is therefore the plain first-half table
// exp(-+2 pi i k / n), k in [0, n/2).
type tables[T float] struct {
	rev      []int32
	fwd, inv []T
}

// tableCache maps tableKey[T]{n} to *tables[T], for the life of the
// process: one 3-D transform runs thousands of short line transforms,
// and a table lookup per butterfly beats both recomputing the root per
// stage and the w *= wStep recurrence (which drifts by O(n eps) across
// a line). Entries are tiny — one per distinct grid edge and width —
// and read-mostly; sync.Map keeps concurrent transforms lock-free on
// the hit path.
var tableCache sync.Map

type tableKey[T float] struct{ n int }

// tablesFor returns the tables of power-of-two length n. Roots are
// computed in float64 and rounded to T once.
func tablesFor[T float](n int) *tables[T] {
	key := tableKey[T]{n}
	if t, ok := tableCache.Load(key); ok {
		return t.(*tables[T])
	}
	t := &tables[T]{
		rev: make([]int32, n),
		fwd: make([]T, 0, 2*n),
		inv: make([]T, 0, 2*n),
	}
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := range t.rev {
		t.rev[i] = int32(bits.Reverse64(uint64(i)) >> shift)
	}
	for half := 1; half < n; half <<= 1 {
		for k := 0; k < half; k++ {
			s, c := math.Sincos(2 * math.Pi * float64(k*(n/(2*half))) / float64(n))
			t.fwd = append(t.fwd, T(c), T(-s))
			t.inv = append(t.inv, T(c), T(s))
		}
	}
	tableCache.Store(key, t)
	return t
}

// transform is the iterative Cooley-Tukey radix-2 kernel: the in-place
// DFT of a power-of-two line of (re, im) pairs that the caller has
// gathered in bit-reversed order, with w the fwd or inv roots of the
// line's tables. Every output is multiplied by scale, which is folded
// into the final butterfly stage: that stage spans the whole line (one
// butterfly per element pair), so scaling its outputs is exactly a
// separate x[i] *= scale sweep, minus the extra pass over the data.
// scale is 1 (forward) or a share of 1/n (inverse), so it is 1 whenever
// the line has a single value.
//
// Lines and roots are flat []T rather than []struct{re, im T}: gc folds
// the field offset into the addressing mode of a load from a []T or a
// 16-byte struct element but not an 8-byte one, which made the struct
// form 25% slower at float32 (measured, n = 64). The per-block
// reslicing to equal lengths leaves one bounds check per butterfly,
// the first access at k+1.
func transform[T float](x, w []T, scale T) {
	n := len(x)
	last := n >> 1 // the final stage pairs slots n/2 apart
	if scale != 1 {
		last >>= 1
	}
	for h := 2; h <= last; h <<= 1 {
		stage := w[h-2 : 2*h-2]
		for start := 0; start+2*h <= n; start += 2 * h {
			lo, hi := x[start:start+h], x[start+h:start+2*h]
			hi, ws := hi[:len(lo)], stage[:len(lo)]
			for k := 0; k < len(lo)-1; k += 2 {
				tr := hi[k]*ws[k] - hi[k+1]*ws[k+1]
				ti := hi[k]*ws[k+1] + hi[k+1]*ws[k]
				ar, ai := lo[k], lo[k+1]
				lo[k], lo[k+1] = ar+tr, ai+ti
				hi[k], hi[k+1] = ar-tr, ai-ti
			}
		}
	}
	if scale == 1 {
		return
	}
	h := n >> 1
	lo, hi, ws := x[:h], x[h:], w[h-2:]
	hi, ws = hi[:len(lo)], ws[:len(lo)]
	for k := 0; k < len(lo)-1; k += 2 {
		tr := hi[k]*ws[k] - hi[k+1]*ws[k+1]
		ti := hi[k]*ws[k+1] + hi[k+1]*ws[k]
		ar, ai := lo[k], lo[k+1]
		lo[k], lo[k+1] = (ar+tr)*scale, (ai+ti)*scale
		hi[k], hi[k+1] = (ar-tr)*scale, (ai-ti)*scale
	}
}

// lineChunk is the number of 1-D line transforms per executor task:
// coarse enough that task overhead stays negligible against the
// microseconds a line costs, fine enough to balance across workers.
const lineChunk = 32

// elemChunk is the number of complex bins per executor task in the
// pointwise spectral multiply.
const elemChunk = 8192

func chunkTasks(n, chunk int) int { return (n + chunk - 1) / chunk }

func chunkSpan(t, n, chunk int) (int, int) {
	lo := t * chunk
	hi := lo + chunk
	if hi > n {
		hi = n
	}
	return lo, hi
}
