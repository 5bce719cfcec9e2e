package fmm

import (
	"math"
	"runtime"
	"sync"

	"parbem/internal/assembly"
	"parbem/internal/geom"
	"parbem/internal/kernel"
	"parbem/internal/linalg"
	"parbem/internal/sched"
)

// Options tunes the multipole operator.
type Options struct {
	LeafSize int     // max panels per leaf (default 16)
	Theta    float64 // multipole opening parameter (default 0.5)
	// NearFactor scales the exact-integration radius (default 1.5):
	// near leaf pairs within NearFactor * 2*max(halfSize) get exact
	// Galerkin entries; remaining near pairs get center monopole
	// entries (the same approximation the far field uses).
	NearFactor float64
	Workers    int // parallel workers when Pool is nil (default GOMAXPROCS)
	// Eps is the permittivity (0 = vacuum) and Cfg the kernel
	// configuration (nil = defaults). An extraction does not choose them
	// per backend: op.FMMOptions fills both from the spec, whatever a
	// caller left here.
	Eps float64
	Cfg *kernel.Config
	// Pairs is the symmetry-class table the exact near entries are read
	// from and added to (assembly.InternPanels; nil = a table of this
	// operator's own).
	Pairs *assembly.PairCache
	// Pool optionally supplies a shared persistent worker pool
	// (internal/sched); when nil, construction and Apply use a
	// throwaway sched.Local executor sized by Workers, or run inline
	// when Workers is 1.
	Pool *sched.Pool
	// Exec overrides Pool/Workers with an arbitrary executor — e.g. a
	// sched.Budgeted view of a shared pool, so a service caps how many
	// pool workers one request's operator occupies.
	Exec sched.Executor
}

func (o *Options) defaults() {
	if o.LeafSize == 0 {
		o.LeafSize = 16
	}
	if o.Theta == 0 {
		o.Theta = 0.5
	}
	if o.NearFactor == 0 {
		o.NearFactor = 1.5
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Eps == 0 {
		o.Eps = kernel.Eps0
	}
	if o.Cfg == nil {
		o.Cfg = kernel.DefaultConfig()
	}
}

// applyScratch is the per-Apply mutable state: panel charges, upward
// moments and downward local expansions. Bundling it keeps Apply
// re-entrant (concurrent solves may share one Operator) and
// allocation-free after warmup.
type applyScratch struct {
	charges []float64
	mono    []float64
	dip     [][3]float64
	quad    [][6]float64 // xx, yy, zz, xy, xz, yz
	l0      []float64
	l1      [][3]float64
	l2      [][6]float64 // symmetric Hessian, same layout as quad
}

func newScratch(n, nodes int) *applyScratch {
	return &applyScratch{
		charges: make([]float64, n),
		mono:    make([]float64, nodes),
		dip:     make([][3]float64, nodes),
		quad:    make([][6]float64, nodes),
		l0:      make([]float64, nodes),
		l1:      make([][3]float64, nodes),
		l2:      make([][6]float64, nodes),
	}
}

// Operator is the multipole-accelerated Galerkin matvec y = P x for panel
// charge densities x. It implements linalg.Matvec. Apply is safe for
// concurrent use.
type Operator struct {
	panels []geom.Panel
	opt    Options
	t      *tree
	exec   sched.Executor // nil = run inline (serial)

	centers []geom.Vec3
	areas   []float64
	// pairs is the panels interned in the class table: the source of every
	// exact near entry.
	pairs *assembly.Interned

	// Near field: one CSR matrix over panels (exact Galerkin plus
	// point-monopole entries, pre-scaled).
	nearOff []int64
	nearIdx []int32
	nearVal []float64

	// Far field: per-node M2L source lists.
	m2lOff []int32
	m2lSrc []int32

	leaves []int32
	scale  float64 // 1/(4*pi*eps)

	// nearFill is the pair work of the exact entries read from the class
	// table at construction; fillMu guards it while the blocks fill.
	nearFill assembly.FillStats
	fillMu   sync.Mutex

	// scratch manages per-Apply buffers: warm dedicated value for the
	// one-Apply-at-a-time case, pooled overflow for concurrent Applies.
	scratch *sched.Scratch[*applyScratch]

	// mixed is the float32 storage mirror driving ApplyMixed, built
	// lazily by EnableMixed (nil until then).
	mixed     *mixedState
	mixedOnce sync.Once
}

// m2lChunk batches M2L node updates into executor tasks.
const m2lChunk = 64

// NewOperator builds the tree, the near/far interaction lists and the
// exact near-field entries.
func NewOperator(panels []geom.Panel, opt Options) *Operator {
	opt.defaults()
	return NewOperatorWith(NewTopology(panels, opt), panels, opt, nil)
}

// NewOperatorWith assembles the operator over a pre-built topology,
// optionally adopting a stored near field (reuse may be nil; a value
// array of the wrong length degrades to a fresh fill).
func NewOperatorWith(tp *Topology, panels []geom.Panel, opt Options, reuse *Reuse) *Operator {
	opt.defaults()
	t, inter := tp.t, tp.inter

	op := &Operator{
		panels:  panels,
		opt:     opt,
		t:       t,
		centers: make([]geom.Vec3, len(panels)),
		areas:   make([]float64, len(panels)),
		m2lOff:  inter.m2lOff,
		m2lSrc:  inter.m2lSrc,
		leaves:  t.leaves(),
		scale:   1 / (kernel.FourPi * opt.Eps),
		pairs:   assembly.InternPanels(opt.Cfg, opt.Pairs, panels),
	}
	if opt.Exec != nil {
		op.exec = opt.Exec
	} else if opt.Pool != nil {
		op.exec = opt.Pool
	} else if opt.Workers > 1 {
		op.exec = sched.Local(opt.Workers)
	}
	for i, p := range panels {
		op.centers[i] = p.Center()
		op.areas[i] = p.Area()
	}

	// CSR row offsets: every row of a leaf has the same stride.
	op.nearOff = make([]int64, len(panels)+1)
	for pi := range panels {
		op.nearOff[pi+1] = op.nearOff[pi] + inter.rowStride(t, t.leafOf[pi])
	}
	total := op.nearOff[len(panels)]
	op.nearIdx = make([]int32, total)
	op.nearVal = make([]float64, total)

	// A value-array artifact (Reuse.Vals) short-circuits integration
	// entirely: the CSR layout is deterministic for this topology, so
	// the stored values are adopted wholesale and only the indices are
	// built.
	adopt := reuse != nil && int64(len(reuse.Vals)) == total

	// Fill near blocks, one task per unordered leaf pair; each block is
	// evaluated once and scattered to both sides. Every (row, block)
	// segment is owned by exactly one pair, so no locking is needed.
	pairs := inter.pairs
	sched.MapOrInline(op.exec, len(pairs), func(k int) {
		op.fillPair(&pairs[k], !adopt)
	})
	if adopt {
		copy(op.nearVal, reuse.Vals)
	}

	op.scratch = sched.NewScratch(func() *applyScratch {
		return newScratch(len(panels), len(t.nodes))
	})
	return op
}

// nearValue computes one pre-scaled near-field entry, counting an exact
// one into c. Exact entries are evaluated in a canonical orientation (lower
// panel index as target): the quadrature of perpendicular pairs is not
// exactly symmetric in its arguments, and the canonical order makes each
// pair's value a function of the pair alone — independent of which octree
// leaf hosted the evaluation — so the CSR is symmetric. The value is the
// one of the ordered pair's symmetry class (assembly.InternPanels),
// integrated only if the table has not met the class.
func (op *Operator) nearValue(pi, pj int32, galerkin bool, c *assembly.FillStats) float64 {
	if galerkin {
		return op.scale * op.pairs.PairInto(int(min(pi, pj)), int(max(pi, pj)), c)
	}
	return op.scale * op.areas[pi] * op.areas[pj] / op.centers[pi].Dist(op.centers[pj])
}

// fillPair writes the near block of one unordered leaf pair into the CSR
// rows of both leaves, every unordered panel pair once: a leaf's block
// with itself, always exact, is walked over its upper triangle. It writes
// the indices, and with values also each entry — nearValue's, scattered
// to both sides; without, the caller copies an adopted value array.
func (op *Operator) fillPair(pr *nearPair, values bool) {
	na, nb := &op.t.nodes[pr.a], &op.t.nodes[pr.b]
	pa, pb := op.t.perm[na.lo:na.hi], op.t.perm[nb.lo:nb.hi]
	var fill assembly.FillStats
	for ia, pi := range pa {
		base := op.nearOff[pi] + int64(pr.offA)
		jb := 0
		if pr.a == pr.b {
			jb = ia
		}
		for ; jb < len(pb); jb++ {
			pj := pb[jb]
			// On the diagonal of a self block (pi == pj) b2 is dst.
			dst, b2 := base+int64(jb), op.nearOff[pj]+int64(pr.offB)+int64(ia)
			op.nearIdx[dst], op.nearIdx[b2] = pj, pi
			if values {
				v := op.nearValue(pi, pj, pr.galerkin, &fill)
				op.nearVal[dst], op.nearVal[b2] = v, v
			}
		}
	}
	if pr.galerkin && values {
		op.fillMu.Lock()
		op.nearFill.Add(fill)
		op.fillMu.Unlock()
	}
}

// NearVals exposes the near-field CSR value array (read-only) — the
// NearField stage artifact the disk store persists. For bit-identical
// panels and options, a later build's CSR layout matches exactly, so
// Reuse.Vals can adopt this array wholesale.
func (op *Operator) NearVals() []float64 { return op.nearVal }

// Dim implements linalg.Matvec.
func (op *Operator) Dim() int { return len(op.panels) }

// NearEntries returns the number of stored near-field entries (memory
// diagnostics for Table 2).
func (op *Operator) NearEntries() int { return len(op.nearVal) }

// NearFill reports the pair work behind the exact entries: far-gated
// pairs, class-table lookups, and the classes this construction was the
// first to integrate (all zero when a value array was adopted).
func (op *Operator) NearFill() assembly.FillStats { return op.nearFill }

// NearBlocks implements the pipeline's near-block contract
// (internal/op.NearBlocker): the exact-Galerkin self blocks of the
// octree leaves, extracted from the near-field CSR as packed lower
// triangles. Leaves partition the panels, so the blocks are disjoint and
// cover every unknown; each block is a principal sub-matrix of the
// positive definite Galerkin matrix and so positive definite itself.
func (op *Operator) NearBlocks() (idx [][]int32, block func(k int) *linalg.Sym) {
	// pos[panel] = position of the panel within its own leaf.
	pos := make([]int32, len(op.panels))
	for _, lf := range op.leaves {
		nd := &op.t.nodes[lf]
		pan := op.t.perm[nd.lo:nd.hi]
		for k, pi := range pan {
			pos[pi] = int32(k)
		}
		idx = append(idx, append([]int32(nil), pan...))
	}
	return idx, func(k int) *linalg.Sym {
		lf, pan := op.leaves[k], idx[k]
		b := linalg.NewSym(len(pan))
		for r, pi := range pan {
			row := b.Row(r)
			lo, hi := op.nearOff[pi], op.nearOff[pi+1]
			cols := op.nearIdx[lo:hi]
			vals := op.nearVal[lo:hi]
			for k, pj := range cols {
				if c := int(pos[pj]); op.t.leafOf[pj] == lf && c <= r {
					row[c] = vals[k]
				}
			}
		}
		return b
	}
}

// Apply implements linalg.Matvec: upward moment pass, M2L over the
// interaction lists, L2L downward translation, then near CSR row plus
// L2P per panel. Allocation-free after the first call (serial mode) and
// safe for concurrent use.
func (op *Operator) Apply(dst, x []float64) {
	s := op.scratch.Acquire()
	defer op.scratch.Release(s)
	for i, a := range op.areas {
		s.charges[i] = x[i] * a
	}
	op.upward(s)
	if op.exec == nil {
		for id := range op.t.nodes {
			op.m2lNode(s, id)
		}
		op.downward(s)
		for _, lf := range op.leaves {
			op.evalLeaf(s, lf, dst, x)
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
			op.m2lNode(s, id)
		}
	})
	op.downward(s)
	leaves := op.leaves
	op.exec.Map(len(leaves), func(k int) {
		op.evalLeaf(s, leaves[k], dst, x)
	})
}

// upward computes the Cartesian moments of every node about its own
// center. Children always have larger ids than their parent, so one
// descending sweep is a post-order traversal.
func (op *Operator) upward(s *applyScratch) {
	nodes := op.t.nodes
	for id := len(nodes) - 1; id >= 0; id-- {
		nd := &nodes[id]
		var mono float64
		var dip [3]float64
		var quad [6]float64
		if nd.leaf {
			for _, pi := range op.t.perm[nd.lo:nd.hi] {
				q := s.charges[pi]
				r := op.centers[pi].Sub(nd.center)
				mono += q
				dip[0] += q * r.X
				dip[1] += q * r.Y
				dip[2] += q * r.Z
				quad[0] += q * r.X * r.X
				quad[1] += q * r.Y * r.Y
				quad[2] += q * r.Z * r.Z
				quad[3] += q * r.X * r.Y
				quad[4] += q * r.X * r.Z
				quad[5] += q * r.Y * r.Z
			}
		} else {
			for _, ch := range nd.children {
				if ch < 0 {
					continue
				}
				cn := &nodes[ch]
				d := cn.center.Sub(nd.center)
				q := s.mono[ch]
				cd := s.dip[ch]
				cq := s.quad[ch]
				mono += q
				// Shift dipole: d' = d_child + q * offset.
				dip[0] += cd[0] + q*d.X
				dip[1] += cd[1] + q*d.Y
				dip[2] += cd[2] + q*d.Z
				// Shift quadrupole: Q'_ab = Q_ab + d_a off_b + d_b off_a + q off_a off_b.
				quad[0] += cq[0] + 2*cd[0]*d.X + q*d.X*d.X
				quad[1] += cq[1] + 2*cd[1]*d.Y + q*d.Y*d.Y
				quad[2] += cq[2] + 2*cd[2]*d.Z + q*d.Z*d.Z
				quad[3] += cq[3] + cd[0]*d.Y + cd[1]*d.X + q*d.X*d.Y
				quad[4] += cq[4] + cd[0]*d.Z + cd[2]*d.X + q*d.X*d.Z
				quad[5] += cq[5] + cd[1]*d.Z + cd[2]*d.Y + q*d.Y*d.Z
			}
		}
		s.mono[id] = mono
		s.dip[id] = dip
		s.quad[id] = quad
	}
}

// m2lNode converts the moments of every well-separated source node into
// a local (Taylor) expansion about node id's center: value l0, gradient
// l1 and symmetric Hessian l2 of the source potential field. The result
// is assigned, not accumulated, so no zeroing pass is needed.
func (op *Operator) m2lNode(s *applyScratch, id int) {
	var l0 float64
	var l1 [3]float64
	var l2 [6]float64
	ct := op.t.nodes[id].center
	for _, src := range op.m2lSrc[op.m2lOff[id]:op.m2lOff[id+1]] {
		q := s.mono[src]
		dp := s.dip[src]
		qd := s.quad[src]
		R := ct.Sub(op.t.nodes[src].center)
		x, y, z := R.X, R.Y, R.Z
		r2 := x*x + y*y + z*z
		inv2 := 1 / r2
		inv := math.Sqrt(inv2)
		inv3 := inv * inv2
		inv5 := inv3 * inv2
		inv7 := inv5 * inv2
		inv9 := inv7 * inv2

		// Monopole q/r: value, gradient -q x/r^3, Hessian
		// q(3 x_a x_b - delta_ab r^2)/r^5.
		l0 += q * inv
		c3 := q * inv3
		l1[0] -= c3 * x
		l1[1] -= c3 * y
		l1[2] -= c3 * z
		c5 := 3 * q * inv5
		l2[0] += c5*x*x - c3
		l2[1] += c5*y*y - c3
		l2[2] += c5*z*z - c3
		l2[3] += c5 * x * y
		l2[4] += c5 * x * z
		l2[5] += c5 * y * z

		// Dipole (D.x)/r^3.
		dx := dp[0]*x + dp[1]*y + dp[2]*z
		l0 += dx * inv3
		d5 := 3 * dx * inv5
		l1[0] += dp[0]*inv3 - d5*x
		l1[1] += dp[1]*inv3 - d5*y
		l1[2] += dp[2]*inv3 - d5*z
		d7 := 15 * dx * inv7
		t5 := 3 * inv5
		l2[0] += d7*x*x - t5*(2*dp[0]*x+dx)
		l2[1] += d7*y*y - t5*(2*dp[1]*y+dx)
		l2[2] += d7*z*z - t5*(2*dp[2]*z+dx)
		l2[3] += d7*x*y - t5*(dp[0]*y+dp[1]*x)
		l2[4] += d7*x*z - t5*(dp[0]*z+dp[2]*x)
		l2[5] += d7*y*z - t5*(dp[1]*z+dp[2]*y)

		// Quadrupole (raw second moments): (3 x.Qx - tr(Q) r^2)/(2 r^5).
		qx := qd[0]*x + qd[3]*y + qd[4]*z
		qy := qd[3]*x + qd[1]*y + qd[5]*z
		qz := qd[4]*x + qd[5]*y + qd[2]*z
		a := x*qx + y*qy + z*qz
		tr := qd[0] + qd[1] + qd[2]
		l0 += 1.5*a*inv5 - 0.5*tr*inv3
		a7 := 7.5 * a * inv7
		tq5 := 1.5 * tr * inv5
		l1[0] += 3*qx*inv5 - a7*x + tq5*x
		l1[1] += 3*qy*inv5 - a7*y + tq5*y
		l1[2] += 3*qz*inv5 - a7*z + tq5*z
		a9 := 52.5 * a * inv9
		t7 := 7.5 * tr * inv7
		i5 := 3 * inv5
		l2[0] += i5*qd[0] - 30*qx*x*inv7 - a7 + a9*x*x + tq5 - t7*x*x
		l2[1] += i5*qd[1] - 30*qy*y*inv7 - a7 + a9*y*y + tq5 - t7*y*y
		l2[2] += i5*qd[2] - 30*qz*z*inv7 - a7 + a9*z*z + tq5 - t7*z*z
		l2[3] += i5*qd[3] - 15*(qx*y+qy*x)*inv7 + a9*x*y - t7*x*y
		l2[4] += i5*qd[4] - 15*(qx*z+qz*x)*inv7 + a9*x*z - t7*x*z
		l2[5] += i5*qd[5] - 15*(qy*z+qz*y)*inv7 + a9*y*z - t7*y*z
	}
	s.l0[id] = l0
	s.l1[id] = l1
	s.l2[id] = l2
}

// downward translates each node's local expansion to its children (L2L).
// Parents have smaller ids, so one ascending sweep visits parents first.
func (op *Operator) downward(s *applyScratch) {
	nodes := op.t.nodes
	for id := range nodes {
		nd := &nodes[id]
		if nd.leaf {
			continue
		}
		pl0 := s.l0[id]
		pl1 := s.l1[id]
		pl2 := s.l2[id]
		for _, ch := range nd.children {
			if ch < 0 {
				continue
			}
			d := nodes[ch].center.Sub(nd.center)
			hx := pl2[0]*d.X + pl2[3]*d.Y + pl2[4]*d.Z
			hy := pl2[3]*d.X + pl2[1]*d.Y + pl2[5]*d.Z
			hz := pl2[4]*d.X + pl2[5]*d.Y + pl2[2]*d.Z
			s.l0[ch] += pl0 + pl1[0]*d.X + pl1[1]*d.Y + pl1[2]*d.Z +
				0.5*(d.X*hx+d.Y*hy+d.Z*hz)
			s.l1[ch][0] += pl1[0] + hx
			s.l1[ch][1] += pl1[1] + hy
			s.l1[ch][2] += pl1[2] + hz
			for k := 0; k < 6; k++ {
				s.l2[ch][k] += pl2[k]
			}
		}
	}
}

// evalLeaf computes dst for every target panel of leaf lf: the near CSR
// row plus the leaf's local expansion evaluated at the panel center
// (L2P).
func (op *Operator) evalLeaf(s *applyScratch, lf int32, dst, x []float64) {
	nd := &op.t.nodes[lf]
	l0 := s.l0[lf]
	l1 := s.l1[lf]
	l2 := s.l2[lf]
	for _, pi := range op.t.perm[nd.lo:nd.hi] {
		lo, hi := op.nearOff[pi], op.nearOff[pi+1]
		idx := op.nearIdx[lo:hi]
		val := op.nearVal[lo:hi]
		var s0, s1 float64
		k := 0
		for ; k+2 <= len(idx); k += 2 {
			s0 += val[k] * x[idx[k]]
			s1 += val[k+1] * x[idx[k+1]]
		}
		if k < len(idx) {
			s0 += val[k] * x[idx[k]]
		}
		r := op.centers[pi].Sub(nd.center)
		phi := l0 + l1[0]*r.X + l1[1]*r.Y + l1[2]*r.Z +
			0.5*(l2[0]*r.X*r.X+l2[1]*r.Y*r.Y+l2[2]*r.Z*r.Z) +
			l2[3]*r.X*r.Y + l2[4]*r.X*r.Z + l2[5]*r.Y*r.Z
		dst[pi] = s0 + s1 + op.scale*op.areas[pi]*phi
	}
}

var _ linalg.Matvec = (*Operator)(nil)
