package fft

import (
	"parbem/internal/sched"
)

// RGrid is a real Nx x Ny x Nz convolution grid (all powers of two,
// Nz >= 2) in the half-spectrum layout: each (ix, iy) line occupies
// Nz+2 slots — Nz real samples in real space, Hz = Nz/2+1 complex bins
// as (re, im) pairs after ForwardReal (see the package doc). A z line
// of Nz reals packs into Nz/2 complex values (even samples real part,
// odd samples imaginary part); one half-length complex transform plus
// an O(Nz) untangle yields the Hz non-redundant bins, and the y/x axes
// transform c2c over the Hz half-planes only. Index helpers: RIdx for
// real samples, the k-th spectral bin of line (ix, iy) lives at slots
// RIdx(ix, iy, 2k) and RIdx(ix, iy, 2k+1).
type RGrid[T float] struct {
	Nx, Ny, Nz int
	Hz         int // Nz/2 + 1 spectral bins along z
	Data       []T
	// Exec optionally parallelizes the line transforms and the
	// spectral multiply; nil runs inline (allocation-free when warm).
	// Set it before transforming; a grid serves one transform at a time
	// either way.
	Exec sched.Executor
	// lines holds one pack/gather buffer per line task of the longest
	// axis pass, each as long as the longest line; buffer t serves task
	// t of a pass, so repeated transforms (one per matvec in pfft)
	// allocate none.
	lines []T
}

// RGrid3 is the float64 grid of the fp64 pfft operator.
type RGrid3 = RGrid[float64]

// RGrid3F32 is the float32 grid of the mixed-precision pfft apply:
// half the transform traffic of RGrid3.
type RGrid3F32 = RGrid[float32]

// NewRGrid3 allocates a zeroed float64 convolution grid.
func NewRGrid3(nx, ny, nz int) *RGrid3 { return newRGrid[float64](nx, ny, nz) }

// NewRGrid3F32 allocates a zeroed float32 convolution grid.
func NewRGrid3F32(nx, ny, nz int) *RGrid3F32 { return newRGrid[float32](nx, ny, nz) }

func newRGrid[T float](nx, ny, nz int) *RGrid[T] {
	if !IsPow2(nx) || !IsPow2(ny) || !IsPow2(nz) || nz < 2 {
		panic("fft: real grid dimensions must be powers of two with Nz >= 2")
	}
	hz := nz/2 + 1
	tasks := chunkTasks(max(nx*ny, nx*hz, ny*hz), lineChunk)
	return &RGrid[T]{
		Nx: nx, Ny: ny, Nz: nz, Hz: hz,
		Data:  make([]T, nx*ny*(nz+2)),
		lines: make([]T, tasks*lineLen(nx, ny, nz)),
	}
}

// lineLen is the length of one line buffer: a complex line of the
// longest axis pass.
func lineLen(nx, ny, nz int) int { return 2 * max(nx, ny, nz/2) }

// RIdx returns the Data index of real sample (ix, iy, iz). Lines are
// padded by two slots (the Nz/2-th spectral bin), so the stride between
// (ix, iy) and (ix, iy+1) is Nz+2, not Nz.
func (g *RGrid[T]) RIdx(ix, iy, iz int) int { return (ix*g.Ny+iy)*(g.Nz+2) + iz }

// ForwardReal transforms the real grid in place into its half
// spectrum: r2c along z, then c2c along y and x over the Hz
// half-planes.
func (g *RGrid[T]) ForwardReal() { g.transformAll(false) }

// InverseReal transforms the half spectrum in place back to real
// samples: c2c inverse along x and y, then c2r along z. The full
// 1/(Nx*Ny*Nz) scaling is folded into the final butterfly stages (no
// separate scaling sweep).
func (g *RGrid[T]) InverseReal() { g.transformAll(true) }

// ConvolveInto circularly convolves the grid's real data with the
// kernel spectrum in place: forward transform, pointwise spectral
// multiply, inverse transform, fused in one call. kernelHat must hold
// the ForwardReal transform of a same-dimension kernel grid; the
// half-spectrum product is valid because both factors carry the
// conjugate symmetry of real data, so the implied redundant half of
// the product is exactly the conjugate of the stored half.
func (g *RGrid[T]) ConvolveInto(kernelHat *RGrid[T]) {
	if g.Nx != kernelHat.Nx || g.Ny != kernelHat.Ny || g.Nz != kernelHat.Nz {
		panic("fft: grid dimension mismatch")
	}
	g.ForwardReal()
	g.mulSpectrum(kernelHat)
	g.InverseReal()
}

// mulSpectrum multiplies the half spectra pointwise, chunked over the
// executor.
func (g *RGrid[T]) mulSpectrum(h *RGrid[T]) {
	n := len(g.Data) / 2
	if g.Exec == nil {
		mulSpectrumRange(g.Data, h.Data, 0, n)
		return
	}
	g.Exec.Map(chunkTasks(n, elemChunk), func(t int) {
		lo, hi := chunkSpan(t, n, elemChunk)
		mulSpectrumRange(g.Data, h.Data, lo, hi)
	})
}

// mulSpectrumRange multiplies complex bins [lo, hi) of the (re, im)
// pair spectra: (a+bi)(c+di) = (ac-bd) + (ad+bc)i.
func mulSpectrumRange[T float](dst, src []T, lo, hi int) {
	for i := 2 * lo; i < 2*hi; i += 2 {
		a, b := dst[i], dst[i+1]
		c, d := src[i], src[i+1]
		dst[i] = a*c - b*d
		dst[i+1] = a*d + b*c
	}
}

// axisPass is one axis of a 3-D transform: lines independent 1-D
// transforms with that axis' tables. The z pass (step 0) is the r2c or
// c2r transform of whole contiguous lines; in a y or x pass line t is
// the bins at slots (t/Hz)*outer + 2*(t%Hz) + i*step, i in [0, len(rev)).
type axisPass[T float] struct {
	lines       int
	outer, step int
	rev         []int32
	w           []T
	wN          []T // z pass: the length-Nz roots of the untangle/entangle rotation
	scale       T
}

// transformAll runs the three axis passes. Forward order is z (r2c),
// y, x; inverse order is x, y, z (the z pass converts back to reals,
// so it must come last). Each axis is a set of independent lines,
// chunked over Exec when present.
func (g *RGrid[T]) transformAll(inv bool) {
	nx, ny, nz, hz, ls := g.Nx, g.Ny, g.Nz, g.Hz, g.Nz+2
	m := nz / 2
	tm, tn, ty, tx := tablesFor[T](m), tablesFor[T](nz), tablesFor[T](ny), tablesFor[T](nx)
	wm, wn, wy, wx := tm.fwd, tn.fwd, ty.fwd, tx.fwd
	sm, sy, sx := T(1), T(1), T(1)
	if inv {
		wm, wn, wy, wx = tm.inv, tn.inv, ty.inv, tx.inv
		// z carries 1/Nz in total: 1/m here, 1/2 in the entangle halves.
		sm, sy, sx = 1/T(m), 1/T(ny), 1/T(nx)
	}
	order := [3]axisPass[T]{
		{lines: nx * ny, rev: tm.rev, w: wm, wN: wn[nz-2:], scale: sm},
		{lines: nx * hz, outer: ny * ls, step: ls, rev: ty.rev, w: wy, scale: sy},
		{lines: ny * hz, outer: ls, step: ny * ls, rev: tx.rev, w: wx, scale: sx},
	}
	if inv {
		order[0], order[2] = order[2], order[0]
	}
	n := lineLen(nx, ny, nz)
	if g.Exec == nil {
		for _, p := range order {
			g.runLines(p, inv, 0, p.lines, g.lines[:n])
		}
		return
	}
	for _, p := range order {
		g.Exec.Map(chunkTasks(p.lines, lineChunk), func(t int) {
			lo, hi := chunkSpan(t, p.lines, lineChunk)
			g.runLines(p, inv, lo, hi, g.lines[t*n:(t+1)*n])
		})
	}
}

// runLines transforms lines [lo, hi) of pass p through the line buffer.
func (g *RGrid[T]) runLines(p axisPass[T], inv bool, lo, hi int, buf []T) {
	data := g.Data
	buf = buf[:2*len(p.rev)]
	if p.step == 0 {
		ls := g.Nz + 2
		for r := lo; r < hi; r++ {
			d := data[r*ls : r*ls+ls]
			if inv {
				inverseRealLine(d, buf, p.rev, p.w, p.wN, p.scale)
			} else {
				forwardRealLine(d, buf, p.rev, p.w, p.wN)
			}
		}
		return
	}
	hz := g.Hz
	for t := lo; t < hi; t++ {
		base := (t/hz)*p.outer + 2*(t%hz)
		q := base
		for _, r := range p.rev {
			buf[2*r], buf[2*r+1] = data[q], data[q+1]
			q += p.step
		}
		transform(buf, p.w, p.scale)
		q = base
		for i := 0; i < len(buf)-1; i += 2 {
			data[q], data[q+1] = buf[i], buf[i+1]
			q += p.step
		}
	}
}

// forwardRealLine transforms one z line of Nz reals into its Hz
// half-spectrum bins in place: pack the reals as m = Nz/2 complex
// values z[n] = x[2n] + i*x[2n+1] (bit-reversed, as transform wants
// them), transform, then untangle the even/odd sub-spectra —
// Fe[k] = (Z[k]+conj(Z[m-k]))/2, Fo[k] = -i*(Z[k]-conj(Z[m-k]))/2,
// X[k] = Fe[k] + w^k Fo[k] with w = exp(-2 pi i / Nz). X[0] and X[m]
// are real by construction.
func forwardRealLine[T float](d, buf []T, rM []int32, wM, wN []T) {
	m := len(rM)
	for n, r := range rM {
		buf[2*r], buf[2*r+1] = d[2*n], d[2*n+1]
	}
	transform(buf, wM, 1)
	d[0] = buf[0] + buf[1]
	d[1] = 0
	d[2*m] = buf[0] - buf[1]
	d[2*m+1] = 0
	for k := 1; k < m; k++ {
		zkr, zki, znr, zni := buf[2*k], buf[2*k+1], buf[2*(m-k)], buf[2*(m-k)+1]
		wr, wi := wN[2*k], wN[2*k+1]
		evr, evi := zkr+znr, zki-zni // 2 Fe = Z[k] + conj(Z[m-k])
		odr, odi := zki+zni, znr-zkr // 2 Fo = -i*(Z[k] - conj(Z[m-k]))
		d[2*k] = (evr + (wr*odr - wi*odi)) * 0.5
		d[2*k+1] = (evi + (wr*odi + wi*odr)) * 0.5
	}
}

// inverseRealLine transforms one line's Hz half-spectrum bins back to
// Nz reals in place: entangle Z[k] = Fe[k] + i*Fo[k] with Fe[k] =
// (X[k]+conj(X[m-k]))/2 and Fo[k] = w^-k (X[k]-conj(X[m-k]))/2
// (w = exp(-2 pi i / Nz), so wN here is the inverse table), inverse
// transform the m complex values with the 1/m scaling folded into the
// last stage, and unpack reals x[2n] = Re z[n], x[2n+1] = Im z[n].
// Together with the entangle's 1/2 the z axis carries exactly the
// 1/Nz share of the full inverse scaling.
func inverseRealLine[T float](d, buf []T, rM []int32, wM, wN []T, scale T) {
	m := len(rM)
	x0, xm := d[0], d[2*m]
	buf[0], buf[1] = (x0+xm)*0.5, (x0-xm)*0.5
	for k := 1; k < m; k++ {
		xkr, xki := d[2*k], d[2*k+1]
		xnr, xni := d[2*(m-k)], -d[2*(m-k)+1] // conj(X[m-k])
		wr, wi := wN[2*k], wN[2*k+1]
		evr, evi := (xkr+xnr)*0.5, (xki+xni)*0.5
		dr, di := xkr-xnr, xki-xni
		odr, odi := (wr*dr-wi*di)*0.5, (wr*di+wi*dr)*0.5
		r := 2 * rM[k]
		buf[r], buf[r+1] = evr-odi, evi+odr // Fe + i*Fo
	}
	transform(buf, wM, scale)
	copy(d, buf)
}
