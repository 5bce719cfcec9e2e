package pfft

import (
	"parbem/internal/fft"
	"parbem/internal/sched"
)

// Mixed-precision apply path: a float32 mirror of the stencils, the
// precorrection entries and the grid convolution (fft.RGrid3F32, the
// float32 instantiation of the engine the fp64 path runs at float64).
// The pFFT matvec is bandwidth-bound on the padded grid and the
// correction CSR, so halving the element width roughly halves the
// traffic per apply; the fp32 rounding is absorbed by the float64
// iterative refinement wrapper in internal/op exactly as for the
// multipole operator. Unlike the multipole mirror no rescaling is
// needed: every pFFT intermediate is at most one power of 1/r, far
// inside float32 range even for micron geometry.

// mixedScratch is the per-ApplyMixed mutable state: fp32 charges and
// the float32 padded work grid.
type mixedScratch struct {
	charges []float32
	x       []float32
	grid    *fft.RGrid3F32
}

// mixedState is the float32 storage mirror, built once by EnableMixed.
// The precorrection rows are flattened into one CSR (off/idx/val) —
// the per-row slices of the fp64 path cost a pointer chase per panel
// that the fp32 pass avoids.
type mixedState struct {
	areas     []float32
	scale     float32
	kernelHat *fft.RGrid3F32

	// stenPad are the stencil node indices pre-linearized into the
	// padded half-spectrum grid, line stride pz+2 (the fp64 path
	// re-derives padded coordinates from logical indices on every
	// interpolation); stenW are the weights.
	stenPad [][8]int32
	stenW   [][8]float32
	// activePad mirrors activeNodes in padded-grid linear indices.
	activePad []int32
	nodeW     []float32

	nearOff []int64
	nearIdx []int32
	nearVal []float32

	scratch *sched.Scratch[*mixedScratch]
}

// EnableMixed builds the float32 mirror (idempotent, safe for
// concurrent callers). Opt-in for the same reason as the multipole
// operator: it doubles grid storage until the first mixed apply.
func (op *Operator) EnableMixed() {
	op.mixedOnce.Do(func() {
		n := len(op.panels)
		m := &mixedState{
			areas:     make([]float32, n),
			scale:     float32(op.scale),
			kernelHat: fft.NewRGrid3F32(op.px, op.py, op.pz),
			stenPad:   make([][8]int32, n),
			stenW:     make([][8]float32, n),
			activePad: make([]int32, len(op.activeNodes)),
			nodeW:     make([]float32, len(op.nodeW)),
			nearOff:   make([]int64, n+1),
		}
		for i, a := range op.areas {
			m.areas[i] = float32(a)
		}
		// The fp64 kernel spectrum shares the half-spectrum float
		// layout, so the fp32 mirror is a plain element-wise narrowing.
		for i, v := range op.kernelHat.Data {
			m.kernelHat.Data[i] = float32(v)
		}
		ls := op.pz + 2 // padded-line stride of the half-spectrum layout
		for i := range op.sten {
			s := &op.sten[i]
			for k := 0; k < 8; k++ {
				ix, iy, iz := op.nodeCoords(s.idx[k])
				m.stenPad[i][k] = int32((ix*op.py+iy)*ls + iz)
				m.stenW[i][k] = float32(s.w[k])
			}
		}
		for a, nd := range op.activeNodes {
			ix, iy, iz := op.nodeCoords(nd)
			m.activePad[a] = int32((ix*op.py+iy)*ls + iz)
		}
		for i, w := range op.nodeW {
			m.nodeW[i] = float32(w)
		}
		var total int64
		for i := 0; i < n; i++ {
			total += int64(len(op.nearIdx[i]))
			m.nearOff[i+1] = total
		}
		m.nearIdx = make([]int32, total)
		m.nearVal = make([]float32, total)
		for i := 0; i < n; i++ {
			lo := m.nearOff[i]
			copy(m.nearIdx[lo:], op.nearIdx[i])
			for k, v := range op.nearVal[i] {
				m.nearVal[lo+int64(k)] = float32(v)
			}
		}
		m.scratch = sched.NewScratch(func() *mixedScratch {
			g := fft.NewRGrid3F32(op.px, op.py, op.pz)
			g.Exec = op.exec
			return &mixedScratch{
				charges: make([]float32, n),
				x:       make([]float32, n),
				grid:    g,
			}
		})
		op.mixed = m
	})
}

// MixedEnabled reports whether the float32 mirror has been built.
func (op *Operator) MixedEnabled() bool { return op.mixed != nil }

// ApplyMixed computes dst = P x through the float32 mirror: fp32
// project, half-spectrum float32 FFT convolution, fp32 interpolate +
// precorrect. dst and x stay float64 at the interface (the refinement
// loop owns them). Falls back to the fp64 Apply when EnableMixed has
// not run. Safe for concurrent use and allocation-free after warmup in
// serial mode.
func (op *Operator) ApplyMixed(dst, x []float64) {
	m := op.mixed
	if m == nil {
		op.Apply(dst, x)
		return
	}
	s := m.scratch.Acquire()
	defer m.scratch.Release(s)

	for i, a := range m.areas {
		xi := float32(x[i])
		s.x[i] = xi
		s.charges[i] = xi * a
	}

	g := s.grid
	data := g.Data
	np := len(op.panels)
	if op.exec == nil {
		for i := range data {
			data[i] = 0
		}
		op.projectRange32(m, s, data, 0, len(m.activePad))
	} else {
		op.exec.Map((len(data)+applyChunk-1)/applyChunk, func(t int) {
			lo, hi := chunkBounds(t, len(data))
			for i := lo; i < hi; i++ {
				data[i] = 0
			}
		})
		op.exec.Map((len(m.activePad)+applyChunk-1)/applyChunk, func(t int) {
			lo, hi := chunkBounds(t, len(m.activePad))
			op.projectRange32(m, s, data, lo, hi)
		})
	}

	g.ConvolveInto(m.kernelHat)

	if op.exec == nil {
		op.evalRange32(m, s, data, dst, 0, np)
		return
	}
	op.exec.Map((np+applyChunk-1)/applyChunk, func(t int) {
		lo, hi := chunkBounds(t, np)
		op.evalRange32(m, s, data, dst, lo, hi)
	})
}

// projectRange32 accumulates fp32 charges onto active padded-grid nodes
// [lo, hi) through the node-to-panel adjacency.
func (op *Operator) projectRange32(m *mixedState, s *mixedScratch, data []float32, lo, hi int) {
	for a := lo; a < hi; a++ {
		var q float32
		for p := op.nodeOff[a]; p < op.nodeOff[a+1]; p++ {
			q += m.nodeW[p] * s.charges[op.nodePanel[p]]
		}
		data[m.activePad[a]] = q
	}
}

// evalRange32 interpolates fp32 grid potentials and applies the fp32
// precorrection for panels [lo, hi).
func (op *Operator) evalRange32(m *mixedState, s *mixedScratch, data []float32, dst []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		pad := &m.stenPad[i]
		w := &m.stenW[i]
		phi := w[0]*data[pad[0]] + w[1]*data[pad[1]] +
			w[2]*data[pad[2]] + w[3]*data[pad[3]] +
			w[4]*data[pad[4]] + w[5]*data[pad[5]] +
			w[6]*data[pad[6]] + w[7]*data[pad[7]]
		y := m.scale * m.areas[i] * phi
		nlo, nhi := m.nearOff[i], m.nearOff[i+1]
		idx := m.nearIdx[nlo:nhi]
		val := m.nearVal[nlo:nhi]
		x32 := s.x
		var c float32
		for k, j := range idx {
			c += val[k] * x32[j]
		}
		dst[i] = float64(y + c)
	}
}
