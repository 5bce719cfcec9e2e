package fmm

import (
	"math"

	"parbem/internal/sched"
)

// Mixed-precision apply path: a float32 mirror of the near-field CSR and
// the far-field multipole pass. The accelerated matvec is memory-bound on
// the CSR values and the per-node expansion tables, so halving their
// width roughly halves the bandwidth per apply; the fp32 rounding
// (~1e-7 relative per apply) is absorbed by the float64 iterative
// refinement wrapper in internal/op, which re-computes residuals with
// the fp64 Apply and keeps the final answer at the fp64 contract.

// mixedScratch is the per-ApplyMixed mutable state, the float32 twin of
// applyScratch plus the converted input vector.
type mixedScratch struct {
	x       []float32
	charges []float32
	mono    []float32
	dip     [][3]float32
	quad    [][6]float32
	l0      []float32
	l1      [][3]float32
	l2      [][6]float32
	// xg holds the per-leaf gathered x sub-vectors: every row of a leaf
	// has the same near-field column layout, so the gather is hoisted out
	// of the row loop and each row becomes a dense contiguous dot
	// product. Leaf k owns xg[xgOff[k]:xgOff[k+1]] (mixedState.xgOff):
	// the leaves are evaluated concurrently and must not share it.
	xg []float32
}

func newMixedScratch(n, nodes, xgLen int) *mixedScratch {
	return &mixedScratch{
		x:       make([]float32, n),
		charges: make([]float32, n),
		mono:    make([]float32, nodes),
		dip:     make([][3]float32, nodes),
		quad:    make([][6]float32, nodes),
		l0:      make([]float32, nodes),
		l1:      make([][3]float32, nodes),
		l2:      make([][6]float32, nodes),
		xg:      make([]float32, xgLen),
	}
}

// mixedState holds the float32 storage mirror, built once by EnableMixed:
// near CSR values, panel geometry, and node centers (the M2L translation
// inputs). Indices are shared with the fp64 CSR.
//
// Coordinates are stored in units of the root node's half-size: the raw
// micron-scale geometry would push the 1/r^7 and 1/r^9 M2L factors to
// ~1e42, far past float32 range (~3.4e38). The Laplace potential is
// homogeneous of degree -1 in length, so evaluating the whole far-field
// pass in scaled coordinates and folding one factor of 1/L into the
// output scale reproduces the physical potential exactly while keeping
// every fp32 intermediate within a few orders of magnitude of 1.
type mixedState struct {
	nearVal []float32
	areas   []float32
	centers [][3]float32 // panel centers, in units of L
	nodeCtr [][3]float32 // tree node centers, in units of L
	scale   float32      // op.scale / L (the homogeneity factor)
	// m2lTab is the M2L translation table: the 35 derivative-tensor
	// components of 1/r (value, gradient, Hessian, third and fourth
	// derivatives; see m2lCoeffs) per *unique* pair separation, with
	// m2lTabIdx mapping each interaction-list pair (aligned with m2lSrc)
	// to its table row. The fp64 path rebuilds the 1/r^k power ladder
	// per pair per apply; here the separations never change, so the
	// mixed inner loop is pure independent multiply-adds with no
	// divide/sqrt dependency chain. Octree centers sit on a dyadic
	// lattice, so separations repeat massively across pairs (the classic
	// FMM unique-translation observation): deduplicating by exact bit
	// pattern keeps the table a few hundred rows — cache-resident —
	// instead of 140 bytes streamed per pair.
	m2lTab    []float32
	m2lTabIdx []int32
	xgOff     []int // leaf k's segment of mixedScratch.xg, by position in op.leaves
	scratch   *sched.Scratch[*mixedScratch]
}

// m2lStride is the number of table entries per M2L pair.
const m2lStride = 35

// EnableMixed builds the float32 mirror (idempotent, safe for concurrent
// callers). The mirror costs half the fp64 near-field storage and is only
// worth building when ApplyMixed will actually run, so it is opt-in
// rather than part of construction.
func (op *Operator) EnableMixed() {
	op.mixedOnce.Do(func() {
		L := op.t.nodes[0].halfSize
		if L <= 0 {
			L = 1
		}
		invL := 1 / L
		m := &mixedState{
			nearVal: make([]float32, len(op.nearVal)),
			areas:   make([]float32, len(op.areas)),
			centers: make([][3]float32, len(op.centers)),
			nodeCtr: make([][3]float32, len(op.t.nodes)),
			scale:   float32(op.scale * invL),
		}
		for i, v := range op.nearVal {
			m.nearVal[i] = float32(v)
		}
		for i, a := range op.areas {
			m.areas[i] = float32(a)
		}
		for i, c := range op.centers {
			m.centers[i] = [3]float32{float32(c.X * invL), float32(c.Y * invL), float32(c.Z * invL)}
		}
		for i := range op.t.nodes {
			c := op.t.nodes[i].center
			m.nodeCtr[i] = [3]float32{float32(c.X * invL), float32(c.Y * invL), float32(c.Z * invL)}
		}
		m.m2lTabIdx = make([]int32, len(op.m2lSrc))
		// Dedup key: octree centers are odd multiples of the finest
		// half-cell, so every separation is an integer multiple of it.
		// Keying on those integers (not raw float64 bits, which differ by
		// rounding at different absolute positions) collapses the table to
		// the few hundred genuinely distinct translations and keeps it
		// cache-resident during the apply.
		hmin := math.Inf(1)
		for i := range op.t.nodes {
			if h := op.t.nodes[i].halfSize; h > 0 && h < hmin {
				hmin = h
			}
		}
		if math.IsInf(hmin, 1) {
			hmin = L
		}
		invQ := 1 / (hmin * invL)
		uniq := make(map[[3]int64]int32)
		for id := range op.t.nodes {
			ct := op.t.nodes[id].center
			for k := op.m2lOff[id]; k < op.m2lOff[id+1]; k++ {
				sc := op.t.nodes[op.m2lSrc[k]].center
				r := [3]float64{(ct.X - sc.X) * invL, (ct.Y - sc.Y) * invL, (ct.Z - sc.Z) * invL}
				key := [3]int64{
					int64(math.Round(r[0] * invQ)),
					int64(math.Round(r[1] * invQ)),
					int64(math.Round(r[2] * invQ)),
				}
				row, ok := uniq[key]
				if !ok {
					row = int32(len(uniq))
					uniq[key] = row
					m.m2lTab = append(m.m2lTab, make([]float32, m2lStride)...)
					m2lCoeffs(r[0], r[1], r[2], m.m2lTab[int(row)*m2lStride:])
				}
				m.m2lTabIdx[k] = row
			}
		}
		n, nodes := len(op.panels), len(op.t.nodes)
		m.xgOff = make([]int, len(op.leaves)+1)
		for k, lf := range op.leaves {
			w := 0
			if nd := &op.t.nodes[lf]; nd.hi > nd.lo {
				row := op.t.perm[nd.lo]
				w = int(op.nearOff[row+1] - op.nearOff[row])
			}
			m.xgOff[k+1] = m.xgOff[k] + w
		}
		xgLen := m.xgOff[len(op.leaves)]
		m.scratch = sched.NewScratch(func() *mixedScratch {
			return newMixedScratch(n, nodes, xgLen)
		})
		op.mixed = m
	})
}

// MixedEnabled reports whether the float32 mirror has been built.
func (op *Operator) MixedEnabled() bool { return op.mixed != nil }

// ApplyMixed computes dst = P x through the float32 mirror. dst and x
// remain float64 at the interface (the refinement loop owns them); the
// conversion in and out is linear-time and cache-friendly. Falls back to
// the fp64 Apply when EnableMixed has not run. Allocation-free warm and
// safe for concurrent use.
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
	op.upward32(m, s)
	transformMoments(s)
	if op.exec == nil {
		for id := range op.t.nodes {
			op.m2lNode32(m, s, id)
		}
		op.downward32(m, s)
		for k := range op.leaves {
			op.evalLeaf32(m, s, k, dst)
		}
		return
	}
	nn := len(op.t.nodes)
	op.exec.Map((nn+m2lChunk-1)/m2lChunk, func(c int) {
		lo := c * m2lChunk
		hi := lo + m2lChunk
		if hi > nn {
			hi = nn
		}
		for id := lo; id < hi; id++ {
			op.m2lNode32(m, s, id)
		}
	})
	op.downward32(m, s)
	op.exec.Map(len(op.leaves), func(k int) {
		op.evalLeaf32(m, s, k, dst)
	})
}

// upward32 mirrors upward in float32.
func (op *Operator) upward32(m *mixedState, s *mixedScratch) {
	nodes := op.t.nodes
	for id := len(nodes) - 1; id >= 0; id-- {
		nd := &nodes[id]
		ctr := m.nodeCtr[id]
		// Scalar accumulators: see the m2lNode32 registerization note.
		var mono, dpx, dpy, dpz, qxx, qyy, qzz, qxy, qxz, qyz float32
		if nd.leaf {
			for _, pi := range op.t.perm[nd.lo:nd.hi] {
				q := s.charges[pi]
				c := m.centers[pi]
				rx, ry, rz := c[0]-ctr[0], c[1]-ctr[1], c[2]-ctr[2]
				mono += q
				dpx += q * rx
				dpy += q * ry
				dpz += q * rz
				qxx += q * rx * rx
				qyy += q * ry * ry
				qzz += q * rz * rz
				qxy += q * rx * ry
				qxz += q * rx * rz
				qyz += q * ry * rz
			}
		} else {
			for _, ch := range nd.children {
				if ch < 0 {
					continue
				}
				cc := m.nodeCtr[ch]
				dx, dy, dz := cc[0]-ctr[0], cc[1]-ctr[1], cc[2]-ctr[2]
				q := s.mono[ch]
				cd := s.dip[ch]
				cq := s.quad[ch]
				mono += q
				dpx += cd[0] + q*dx
				dpy += cd[1] + q*dy
				dpz += cd[2] + q*dz
				qxx += cq[0] + 2*cd[0]*dx + q*dx*dx
				qyy += cq[1] + 2*cd[1]*dy + q*dy*dy
				qzz += cq[2] + 2*cd[2]*dz + q*dz*dz
				qxy += cq[3] + cd[0]*dy + cd[1]*dx + q*dx*dy
				qxz += cq[4] + cd[0]*dz + cd[2]*dx + q*dx*dz
				qyz += cq[5] + cd[1]*dz + cd[2]*dy + q*dy*dz
			}
		}
		s.mono[id] = mono
		s.dip[id] = [3]float32{dpx, dpy, dpz}
		s.quad[id] = [6]float32{qxx, qyy, qzz, qxy, qxz, qyz}
	}
}

// m2lCoeffs fills t (length m2lStride) with the derivative tensors of
// 1/r at separation (x, y, z), computed in float64 and rounded once:
//
//	t[0]      value            1/r
//	t[1:4]    gradient         g_a   = -x_a/r^3
//	t[4:10]   Hessian          H_ab  = 3 x_a x_b/r^5 - d_ab/r^3   (xx yy zz xy xz yz)
//	t[10:20]  third derivative T_abc (lexicographic: xxx xxy xxz xyy xyz xzz yyy yyz yzz zzz)
//	t[20:35]  fourth derivative F_abcd (xxxx xxxy xxxz xxyy xxyz xxzz
//	          xyyy xyyz xyzz xzzz yyyy yyyz yyzz yzzz zzzz)
//
// With moments transformed to (q, D' = -D, Q” = half-diagonal Q), the
// local expansion of one source is the pure contraction
//
//	l0   = q t[0] + g.D'  + H:Q''
//	l1_a = q g_a  + (H D')_a + (T:Q'')_a
//	l2_ab= q H_ab + (T D')_ab + (F:Q'')_ab
//
// which is algebraically identical to the fp64 m2lNode formulas.
func m2lCoeffs(x, y, z float64, t []float32) {
	r2 := x*x + y*y + z*z
	inv := 1 / math.Sqrt(r2)
	inv2 := inv * inv
	inv3 := inv * inv2
	inv5 := inv3 * inv2
	inv7 := inv5 * inv2
	inv9 := inv7 * inv2
	t[0] = float32(inv)
	t[1] = float32(-x * inv3)
	t[2] = float32(-y * inv3)
	t[3] = float32(-z * inv3)
	t[4] = float32(3*x*x*inv5 - inv3)
	t[5] = float32(3*y*y*inv5 - inv3)
	t[6] = float32(3*z*z*inv5 - inv3)
	t[7] = float32(3 * x * y * inv5)
	t[8] = float32(3 * x * z * inv5)
	t[9] = float32(3 * y * z * inv5)
	c7 := -15 * inv7
	t[10] = float32(c7*x*x*x + 9*x*inv5)
	t[11] = float32(c7*x*x*y + 3*y*inv5)
	t[12] = float32(c7*x*x*z + 3*z*inv5)
	t[13] = float32(c7*x*y*y + 3*x*inv5)
	t[14] = float32(c7 * x * y * z)
	t[15] = float32(c7*x*z*z + 3*x*inv5)
	t[16] = float32(c7*y*y*y + 9*y*inv5)
	t[17] = float32(c7*y*y*z + 3*z*inv5)
	t[18] = float32(c7*y*z*z + 3*y*inv5)
	t[19] = float32(c7*z*z*z + 9*z*inv5)
	c9 := 105 * inv9
	t[20] = float32(c9*x*x*x*x + c7*6*x*x + 9*inv5)
	t[21] = float32(c9*x*x*x*y + c7*3*x*y)
	t[22] = float32(c9*x*x*x*z + c7*3*x*z)
	t[23] = float32(c9*x*x*y*y + c7*(x*x+y*y) + 3*inv5)
	t[24] = float32(c9*x*x*y*z + c7*y*z)
	t[25] = float32(c9*x*x*z*z + c7*(x*x+z*z) + 3*inv5)
	t[26] = float32(c9*x*y*y*y + c7*3*x*y)
	t[27] = float32(c9*x*y*y*z + c7*x*z)
	t[28] = float32(c9*x*y*z*z + c7*x*y)
	t[29] = float32(c9*x*z*z*z + c7*3*x*z)
	t[30] = float32(c9*y*y*y*y + c7*6*y*y + 9*inv5)
	t[31] = float32(c9*y*y*y*z + c7*3*y*z)
	t[32] = float32(c9*y*y*z*z + c7*(y*y+z*z) + 3*inv5)
	t[33] = float32(c9*y*z*z*z + c7*3*y*z)
	t[34] = float32(c9*z*z*z*z + c7*6*z*z + 9*inv5)
}

// transformMoments rewrites the upward moments into the contraction form
// m2lNode32 consumes: negated dipole (odd derivative orders carry a sign
// flip) and quadrupole with the 1/2 Taylor factor folded in — 1/2 on the
// diagonal, 1/2 * 2 = 1 on the off-diagonal (symmetric multiplicity).
func transformMoments(s *mixedScratch) {
	for id := range s.dip {
		d := &s.dip[id]
		d[0], d[1], d[2] = -d[0], -d[1], -d[2]
		q := &s.quad[id]
		q[0] *= 0.5
		q[1] *= 0.5
		q[2] *= 0.5
	}
}

// m2lNode32 accumulates the local expansion of node id from its M2L
// sources through the translation table: 100 independent multiply-adds
// per source, no divisions, sqrt, or power chains (compare m2lNode,
// which rebuilds the 1/r^k ladder per pair per apply).
// Accumulators are individual scalars, not small arrays: the Go
// compiler never registerizes multi-element arrays, so [3]/[6]float32
// accumulators would be forced through the stack on every add. (The
// loop keeps ~20 float values live and spills regardless; scalars at
// least let the register allocator choose the victims.)
func (op *Operator) m2lNode32(m *mixedState, s *mixedScratch, id int) {
	var v0, gx, gy, gz, hxx, hyy, hzz, hxy, hxz, hyz float32
	lo, hi := op.m2lOff[id], op.m2lOff[id+1]
	tabIdx := m.m2lTabIdx[lo:hi]
	for i, src := range op.m2lSrc[lo:hi] {
		r := int(tabIdx[i]) * m2lStride
		t := m.m2lTab[r : r+m2lStride : r+m2lStride]
		q := s.mono[src]
		d := s.dip[src]
		qq := s.quad[src]
		d0, d1, d2 := d[0], d[1], d[2]
		q0, q1, q2, q3, q4, q5 := qq[0], qq[1], qq[2], qq[3], qq[4], qq[5]
		v0 += q*t[0] + d0*t[1] + d1*t[2] + d2*t[3] +
			q0*t[4] + q1*t[5] + q2*t[6] + q3*t[7] + q4*t[8] + q5*t[9]
		gx += q*t[1] + d0*t[4] + d1*t[7] + d2*t[8] +
			q0*t[10] + q1*t[13] + q2*t[15] + q3*t[11] + q4*t[12] + q5*t[14]
		gy += q*t[2] + d0*t[7] + d1*t[5] + d2*t[9] +
			q0*t[11] + q1*t[16] + q2*t[18] + q3*t[13] + q4*t[14] + q5*t[17]
		gz += q*t[3] + d0*t[8] + d1*t[9] + d2*t[6] +
			q0*t[12] + q1*t[17] + q2*t[19] + q3*t[14] + q4*t[15] + q5*t[18]
		hxx += q*t[4] + d0*t[10] + d1*t[11] + d2*t[12] +
			q0*t[20] + q1*t[23] + q2*t[25] + q3*t[21] + q4*t[22] + q5*t[24]
		hyy += q*t[5] + d0*t[13] + d1*t[16] + d2*t[17] +
			q0*t[23] + q1*t[30] + q2*t[32] + q3*t[26] + q4*t[27] + q5*t[31]
		hzz += q*t[6] + d0*t[15] + d1*t[18] + d2*t[19] +
			q0*t[25] + q1*t[32] + q2*t[34] + q3*t[28] + q4*t[29] + q5*t[33]
		hxy += q*t[7] + d0*t[11] + d1*t[13] + d2*t[14] +
			q0*t[21] + q1*t[26] + q2*t[28] + q3*t[23] + q4*t[24] + q5*t[27]
		hxz += q*t[8] + d0*t[12] + d1*t[14] + d2*t[15] +
			q0*t[22] + q1*t[27] + q2*t[29] + q3*t[24] + q4*t[25] + q5*t[28]
		hyz += q*t[9] + d0*t[14] + d1*t[17] + d2*t[18] +
			q0*t[24] + q1*t[31] + q2*t[33] + q3*t[27] + q4*t[28] + q5*t[32]
	}
	s.l0[id] = v0
	s.l1[id] = [3]float32{gx, gy, gz}
	s.l2[id] = [6]float32{hxx, hyy, hzz, hxy, hxz, hyz}
}

// downward32 mirrors downward in float32.
func (op *Operator) downward32(m *mixedState, s *mixedScratch) {
	nodes := op.t.nodes
	for id := range nodes {
		nd := &nodes[id]
		if nd.leaf {
			continue
		}
		ctr := m.nodeCtr[id]
		pl0 := s.l0[id]
		pl1 := s.l1[id]
		pl2 := s.l2[id]
		for _, ch := range nd.children {
			if ch < 0 {
				continue
			}
			cc := m.nodeCtr[ch]
			dx, dy, dz := cc[0]-ctr[0], cc[1]-ctr[1], cc[2]-ctr[2]
			hx := pl2[0]*dx + pl2[3]*dy + pl2[4]*dz
			hy := pl2[3]*dx + pl2[1]*dy + pl2[5]*dz
			hz := pl2[4]*dx + pl2[5]*dy + pl2[2]*dz
			s.l0[ch] += pl0 + pl1[0]*dx + pl1[1]*dy + pl1[2]*dz +
				0.5*(dx*hx+dy*hy+dz*hz)
			s.l1[ch][0] += pl1[0] + hx
			s.l1[ch][1] += pl1[1] + hy
			s.l1[ch][2] += pl1[2] + hz
			for k := 0; k < 6; k++ {
				s.l2[ch][k] += pl2[k]
			}
		}
	}
}

// evalLeaf32 mirrors evalLeaf with two structural changes on top of the
// fp32 storage: the x gather is hoisted — every row of a leaf has the
// same column layout (each near block lands at one fixed offset in all
// of the leaf's rows), so x is gathered once per leaf into a contiguous
// buffer — and each row then reduces to a dense unrolled fp32 dot
// product (two streaming loads per entry instead of value + index +
// dependent gather). L2P is unchanged; the final store converts to
// float64.
func (op *Operator) evalLeaf32(m *mixedState, s *mixedScratch, li int, dst []float64) {
	lf := op.leaves[li]
	nd := &op.t.nodes[lf]
	rows := op.t.perm[nd.lo:nd.hi]
	if len(rows) == 0 {
		return
	}
	lo0, hi0 := op.nearOff[rows[0]], op.nearOff[rows[0]+1]
	cols := op.nearIdx[lo0:hi0]
	xg := s.xg[m.xgOff[li]:m.xgOff[li+1]]
	x := s.x
	for k, c := range cols {
		xg[k] = x[c]
	}
	ctr := m.nodeCtr[lf]
	l0 := s.l0[lf]
	l1 := s.l1[lf]
	l2 := s.l2[lf]
	for _, pi := range rows {
		lo := op.nearOff[pi]
		val := m.nearVal[lo : lo+int64(len(xg))]
		var s0, s1, s2, s3 float32
		k := 0
		for ; k+4 <= len(val); k += 4 {
			s0 += val[k] * xg[k]
			s1 += val[k+1] * xg[k+1]
			s2 += val[k+2] * xg[k+2]
			s3 += val[k+3] * xg[k+3]
		}
		for ; k < len(val); k++ {
			s0 += val[k] * xg[k]
		}
		s0 += s1 + s2 + s3
		c := m.centers[pi]
		rx, ry, rz := c[0]-ctr[0], c[1]-ctr[1], c[2]-ctr[2]
		phi := l0 + l1[0]*rx + l1[1]*ry + l1[2]*rz +
			0.5*(l2[0]*rx*rx+l2[1]*ry*ry+l2[2]*rz*rz) +
			l2[3]*rx*ry + l2[4]*rx*rz + l2[5]*ry*rz
		dst[pi] = float64(s0 + m.scale*m.areas[pi]*phi)
	}
}
