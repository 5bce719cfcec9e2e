// Package op is the unified operator/solve pipeline: one backend-agnostic,
// preconditioned Krylov path shared by every capacitance-extraction entry
// point (the dense reference, the multipole and precorrected-FFT
// accelerated baselines, the template-extraction fast path, the
// instantiable-basis solver and the batch engine).
//
// # Operator contract
//
// A solve backend is anything implementing Operator (= linalg.Matvec):
//
//	Apply(dst, x)  // dst = P x; dst and x never alias
//	Dim() int      // square dimension N
//
// One solve applies the operator one call at a time — the conductor
// right-hand sides are solved in index order, and the only parallelism is
// the operator's own, on the executor it was built with — but a Pipeline
// may run several solves at once and an operator may serve several
// pipelines, so Apply must be safe for concurrent use; it should be
// allocation-free after warmup (the fmm and pfft operators and
// DenseOperator all are in serial mode). Backends may additionally
// implement NearBlocker to expose their near-field diagonal blocks:
//
//	NearBlocks() (idx [][]int32, block func(k int) *linalg.Sym)
//
// idx[k] lists the unknowns of block k (disjoint across blocks) and
// block(k) copies out the packed lower triangle of the corresponding
// sub-matrix of the operator, which the preconditioner asks for only
// where it must factor one. The fmm operator returns its exact-Galerkin
// octree-leaf self blocks, the pfft operator its precorrection-cluster
// blocks, and DenseOperator spatial clusters of at most 64 panels of one
// conductor.
//
// # Pipeline
//
// Pipeline owns the three steps every entry point used to re-implement:
// right-hand-side construction (unit-potential excitation per conductor,
// Galerkin-tested with panel areas), the multi-RHS solve, and the
// capacitance C = Phi^T P^-1 Phi. The solve is the direct path for dense
// backends — one equilibrated, pivoted LDLᵀ, whose forward sweep alone
// gives C = Yᵀ D⁻¹ Y (see Options.Direct) — or one preconditioned,
// residual-minimising Krylov search space per call
// (linalg.GMRESWorkspace), whose charges Rho reduce to C = Phi^T Rho,
// symmetrized (Reduce): the columns share the operator, so they share
// the space — each projects onto the directions the earlier ones added
// before it pays for new ones — and a variant's solve seeds it with the
// previous variant's charges (ExtractWarmCtx). The space holds
// its last 60 directions (restart), never restarts, and is emptied with the
// call; its buffers serve the next solve of its size class.
//
// # Preconditioner
//
// Every Krylov solve has one preconditioner, near-field block-Jacobi
// (BlockJacobi, built by NewBlockJacobiWith): it factorizes each near block
// once at setup with the direct solve's factorization, linalg.FactorSym,
// in the block's own packed storage, and applies all block solves
// (LDLT.SolveVec) allocation-free inside the solve; a block that is not
// positive definite, and every unknown outside the blocks, fall back to the
// exact point-Jacobi diagonal. An operator that exposes no near blocks
// (NearBlocker) therefore gets point-Jacobi from the same type. Because
// the near blocks carry the strong interactions of the Galerkin matrix,
// block-Jacobi cuts Krylov iteration counts on every backend relative to
// the diagonal alone (see TestBlockJacobiReducesIterations and
// BenchmarkPipelineSolve); there is nothing to select.
//
// Backend selection under Options.Backend == BackendAuto is delegated to
// internal/costmodel.Select, which picks dense, fmm or pfft from the
// panel count and grid fill factor.
//
// # Precision
//
// Options.Precision selects the arithmetic of the accelerated matvec.
// PrecisionFP64 runs everything in float64. PrecisionMixed asks the fmm
// and pfft operators for their float32 mirrors (ApplyMixed: float32
// storage and arithmetic for the far field, float64 accumulation at the
// interfaces) and wraps the Krylov solve in float64 iterative
// refinement: the inner GMRES iterates against the float32 operator at
// a loose inner tolerance while the outer loop computes true float64
// residuals through the fp64 operator and re-solves for the correction,
// so the float32 representation error never bounds the final accuracy —
// only the requested Tol does. If the refinement stalls (the float32
// operator cannot reduce the residual further), the pipeline finishes
// the solve in pure fp64; correctness is never traded for speed.
// PrecisionAuto (the default) resolves to PrecisionFP64: mixed runs
// only when asked for by name.
// Dense backends ignore the knob (no float32 mirror). Result.Precision
// and Pipeline.Precision report the arithmetic that actually ran, never
// PrecisionAuto.
package op

import (
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"parbem/internal/assembly"
	"parbem/internal/geom"
	"parbem/internal/kernel"
	"parbem/internal/linalg"
	"parbem/internal/sched"
)

// Operator is the solve-backend contract: a matvec safe for concurrent
// pipelines (one solve never applies it twice at once).
type Operator = linalg.Matvec

// NearBlocker is optionally implemented by operators that can expose
// disjoint near-field diagonal blocks for block-Jacobi preconditioning.
// idx[k] holds the unknown indices of block k; block(k) returns a fresh
// packed lower triangle of the sub-matrix over those unknowns, which the
// caller owns. Blocks must not share unknowns.
type NearBlocker interface {
	NearBlocks() (idx [][]int32, block func(k int) *linalg.Sym)
}

// Spec describes a panelized extraction problem to the pipeline: the
// geometry, the physics constants and the execution resources.
type Spec struct {
	Panels        []geom.Panel
	NumConductors int
	// Cfg is the kernel configuration (nil = defaults): the extraction's
	// only one, on every backend (FMMOptions and PFFTOptions hand it to the
	// operators). Every backend scales by the vacuum permittivity.
	Cfg *kernel.Config
	// Exec runs parallel assembly, dense matvecs and the reduction
	// (nil = a throwaway sched.Local sized by GOMAXPROCS).
	Exec sched.Executor
	// Pairs is the symmetry-class table that every exact panel-pair value
	// of this spec is read from and added to — Entry, the dense assembly,
	// and the fmm and pfft operators built from FMMOptions / PFFTOptions
	// (nil = a table of each one's own). Sharing one across specs shares
	// the integrals: a class is a pair up to translation, reflection and
	// axis permutation, whichever structure it occurs in.
	Pairs *assembly.PairCache

	// interned is Panels in Pairs, built by the first call that needs a
	// pair value.
	interned *assembly.Interned
}

// withDefaults fills zero fields (value receiver: the caller's spec is
// not mutated).
func (s Spec) withDefaults() Spec {
	if s.Cfg == nil {
		s.Cfg = kernel.DefaultConfig()
	}
	return s
}

// exec returns the configured executor or a throwaway local one.
func (s *Spec) exec() sched.Executor {
	if s.Exec != nil {
		return s.Exec
	}
	return sched.Local(0)
}

// N returns the unknown count.
func (s *Spec) N() int { return len(s.Panels) }

// pairs returns the spec's panels interned in its class table. The first
// call interns them and is not safe to race with another; a Spec is built
// and first used by one goroutine.
func (s *Spec) pairs() *assembly.Interned {
	if s.interned == nil {
		s.interned = assembly.InternPanels(s.Cfg, s.Pairs, s.Panels)
	}
	return s.interned
}

// Entry computes one scaled Galerkin matrix entry P_ij, panel i the target:
// the value of the pair's symmetry class (assembly.InternPanels), which is
// what AssembleDense stores as entry (j, i) for i <= j, to the bit,
// whatever else the table has served and whether the pair's block looked
// the class up or took it from a pair of the same displacement.
func (s *Spec) Entry(i, j int) float64 {
	var c assembly.FillStats
	return kernel.Scale(s.pairs().PairInto(i, j, &c))
}

// RHS builds the N x n right-hand-side matrix Phi: row i has the panel
// area in the column of its conductor (Galerkin testing of the unit
// potential).
func (s *Spec) RHS() *linalg.Dense {
	phi := linalg.NewDense(s.N(), s.NumConductors)
	for i, pan := range s.Panels {
		phi.Set(i, pan.Conductor, pan.Area())
	}
	return phi
}

// AssembleDense builds the Galerkin matrix, its packed lower triangle, in
// parallel, block by block of panel groups; each entry is computed and
// written once. Only op's and pcbem's tests call it.
func (s *Spec) AssembleDense() *linalg.Sym {
	m, _, _ := s.AssembleDenseReuse(nil, nil)
	return m
}

// AssembleDenseReuse is AssembleDense into prev, the matrix of the
// previous variant of these panels, which it overwrites and returns; a nil
// or shape-mismatched prev is left alone, and the matrix is then one given
// to RecycleSym or a new one: every entry of it is written, so what it
// held does not matter. Entries whose panel pair moved rigidly as a unit
// since prev was assembled (equal non-negative
// class values, panels aligned 1:1 by index; see geom.Diff and
// internal/plan) keep prev's value and are neither read nor written; every
// other entry (j, i), i <= j, is the value of its symmetry class in the
// spec's table with panel i the target (see Entry). The matrix is filled
// by blocks of panel groups (assembly.Interned.FillUpper): a block whose
// two groups moved as one is skipped; inside any other block, the first
// near pair of each distinct centre displacement looks its class up —
// integrated only if the table has not met it — and the pairs that share
// the displacement take the same bits from the block's memo. A variant
// therefore allocates and zeroes no matrix, and touches only what moved.
// It returns the matrix, the number of entries kept, and the pair work of
// the rest.
func (s *Spec) AssembleDenseReuse(prev *linalg.Sym, class []int32) (*linalg.Sym, int64, assembly.FillStats) {
	n := s.N()
	m := prev
	if m == nil || m.N != n {
		m, class = recycledSym(n), nil
	}
	if len(class) != n {
		class = nil
	}
	reused, fill := s.pairs().FillUpper(s.exec(), m, class)
	return m, reused, fill
}

// classPool is one sync.Pool per power-of-two size class: a value whose
// buffers hold l float64s goes to class bits.Len(l), which holds lengths
// in [2^(k-1), 2^k). A value therefore serves only requests less than
// twice as large or small as itself, and one a large request leaves is
// taken by no small one: the two collections after the last request of
// its class free it. The classes are fixed, whatever sizes a service's
// clients send.
type classPool [bits.UintSize + 1]sync.Pool

// get returns a value put in the class of size l, or nil.
func (c *classPool) get(l int) any { return c[bits.Len(uint(l))].Get() }

// put keeps v, whose buffers hold l float64s, in its class.
func (c *classPool) put(l int, v any) { c[bits.Len(uint(l))].Put(v) }

// syms holds the packed matrices given to RecycleSym: a service's
// one-shot plans give theirs up (plan.Plan.Release) as the next plan,
// often of a corpus shape seen before, assembles one of a size close by.
var syms classPool

// RecycleSym hands m (nil: nothing) to the next AssembleDenseReuse of its
// size class that has no matrix of its own to rewrite. The caller gives m
// up: nothing may read or write it afterwards.
func RecycleSym(m *linalg.Sym) {
	if m != nil {
		syms.put(cap(m.Data), m)
	}
}

// recycledSym returns a matrix of dimension n on the storage of one given
// to RecycleSym, if that holds the packed triangle, or a new one. Its
// entries are whatever they were.
func recycledSym(n int) *linalg.Sym {
	l := linalg.PackedLen(n)
	if m, ok := syms.get(l).(*linalg.Sym); ok {
		if cap(m.Data) >= l {
			m.N, m.Data = n, m.Data[:l]
			return m
		}
		syms.put(cap(m.Data), m)
	}
	return linalg.NewSym(n)
}

// diagonal computes the exact matrix diagonal (the preconditioner's
// point-Jacobi fallback).
func (s *Spec) diagonal() []float64 {
	d := make([]float64, s.N())
	for i := range d {
		d[i] = s.Entry(i, i)
	}
	return d
}

// stats summarizes the panelization for the cost-model selector: the
// bounding-box span of panel centers and the median panel long edge.
func (s *Spec) stats() (span [3]float64, medianEdge float64) {
	if len(s.Panels) == 0 {
		return span, 0
	}
	lo := geom.Vec3{X: math.Inf(1), Y: math.Inf(1), Z: math.Inf(1)}
	hi := geom.Vec3{X: math.Inf(-1), Y: math.Inf(-1), Z: math.Inf(-1)}
	edges := make([]float64, len(s.Panels))
	for i, p := range s.Panels {
		c := p.Center()
		lo = geom.Vec3{X: math.Min(lo.X, c.X), Y: math.Min(lo.Y, c.Y), Z: math.Min(lo.Z, c.Z)}
		hi = geom.Vec3{X: math.Max(hi.X, c.X), Y: math.Max(hi.Y, c.Y), Z: math.Max(hi.Z, c.Z)}
		edges[i] = math.Max(p.U.Len(), p.V.Len())
	}
	d := hi.Sub(lo)
	span = [3]float64{d.X, d.Y, d.Z}
	sort.Float64s(edges)
	return span, edges[len(edges)/2]
}

// denseBlockMax bounds DenseOperator's near blocks: large enough that a
// block captures the local coupling, small enough that the per-iteration
// block solves stay negligible next to the dense matvec. Widths 48 to 128
// on the same clusters left the iteration counts flat.
const denseBlockMax = 64

// Apply's row chunks: each holds about denseChunk packed entries, and there
// are at most denseChunks of them, so the accumulators of the transposed
// half stay below denseChunks x N doubles.
const (
	denseChunk  = 1 << 14
	denseChunks = 16
)

// DenseOperator adapts an assembled system matrix, held as its packed
// lower triangle, to the pipeline. Its matvec reads each packed entry
// once, for both triangles, and its near blocks are the sub-matrices over
// spatial clusters of its panels.
type DenseOperator struct {
	m      *linalg.Sym
	panels []geom.Panel
	ex     sched.Executor
	// bounds cut the rows into Apply's chunks: chunk c is rows
	// [bounds[c], bounds[c+1]), balanced by packed entries. They depend on
	// N alone, so Apply gives the same bits at every executor width.
	bounds  []int
	scratch *sched.Scratch[*[][]float64]
}

// NewDenseOperator wraps the assembled matrix of panels for the pipeline.
// A nil ex applies it serially.
func NewDenseOperator(m *linalg.Sym, panels []geom.Panel, ex sched.Executor) *DenseOperator {
	total := linalg.PackedLen(m.N)
	k := min(max((total+denseChunk-1)/denseChunk, 1), denseChunks)
	bounds := make([]int, k+1)
	for c, i := 1, 0; c <= k; c++ {
		for i < m.N && linalg.PackedLen(i+1) <= c*total/k {
			i++
		}
		bounds[c] = i
	}
	d := &DenseOperator{m: m, panels: panels, ex: ex, bounds: bounds}
	d.scratch = sched.NewScratch(func() *[][]float64 {
		acc := make([][]float64, k)
		for c := 1; c < k; c++ {
			acc[c] = make([]float64, bounds[c+1])
		}
		return &acc
	})
	return d
}

// Dim implements Operator.
func (d *DenseOperator) Dim() int { return d.m.N }

// Apply implements Operator: one Dot and one Axpy per packed row. Row i's
// Dot is entry i of the lower triangle's product; its Axpy adds x_i times
// the row's strict part into its chunk's accumulator of the transposed
// half — dst itself for the first chunk, whose earlier rows are its own —
// and the other accumulators are added to dst in chunk order.
func (d *DenseOperator) Apply(dst, x []float64) {
	acc := d.scratch.Acquire()
	defer d.scratch.Release(acc)
	if k := len(d.bounds) - 1; d.ex == nil {
		for c := range k {
			d.chunk(c, dst, x, *acc)
		}
	} else {
		d.ex.Map(k, func(c int) { d.chunk(c, dst, x, *acc) })
	}
	for _, t := range (*acc)[1:] {
		linalg.Axpy(1, t, dst)
	}
}

// chunk applies rows [bounds[c], bounds[c+1]).
func (d *DenseOperator) chunk(c int, dst, x []float64, acc [][]float64) {
	t := dst
	if c > 0 {
		t = acc[c]
		clear(t)
	}
	for i := d.bounds[c]; i < d.bounds[c+1]; i++ {
		row := d.m.Row(i)
		dst[i] = linalg.Dot(row, x)
		linalg.Axpy(x[i], row[:i], t)
	}
}

// NearBlocks implements NearBlocker with spatial clusters that follow the
// conductors, like the fmm and pfft operators' leaves: each conductor's
// panels are bisected along the longest extent of their centres until a
// cluster holds at most denseBlockMax of them. A block never straddles two
// conductors, so a conductor that moves rigidly takes its blocks — and
// their factors — with it, and inside a block the indices ascend, so the
// same cluster is the same index sequence in every variant.
func (d *DenseOperator) NearBlocks() (idx [][]int32, block func(k int) *linalg.Sym) {
	ctr := make([][3]float64, len(d.panels))
	var byCond [][]int32
	for i, pan := range d.panels {
		c := pan.Center()
		ctr[i] = [3]float64{c.X, c.Y, c.Z}
		for len(byCond) <= pan.Conductor {
			byCond = append(byCond, nil)
		}
		byCond[pan.Conductor] = append(byCond[pan.Conductor], int32(i))
	}
	for _, ix := range byCond {
		if len(ix) > 0 {
			idx = bisect(idx, ix, ctr)
		}
	}
	return idx, func(k int) *linalg.Sym {
		ix := idx[k]
		b := linalg.NewSym(len(ix))
		for r, i := range ix {
			row, src := b.Row(r), d.m.Row(int(i))
			for c, j := range ix[:r+1] {
				row[c] = src[j]
			}
		}
		return b
	}
}

// bisect appends the clusters of the panels ix (centres ctr) to out. A
// cluster above the bound is sorted along the longest extent of its
// centres (ties by index) and cut so that each side gets a whole number of
// blocks' worth.
func bisect(out [][]int32, ix []int32, ctr [][3]float64) [][]int32 {
	if len(ix) <= denseBlockMax {
		slices.Sort(ix)
		return append(out, ix)
	}
	axis, longest := 0, -1.0
	for k := 0; k < 3; k++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, i := range ix {
			lo, hi = math.Min(lo, ctr[i][k]), math.Max(hi, ctr[i][k])
		}
		if hi-lo > longest {
			axis, longest = k, hi-lo
		}
	}
	sort.Slice(ix, func(a, b int) bool {
		ca, cb := ctr[ix[a]][axis], ctr[ix[b]][axis]
		return ca < cb || ca == cb && ix[a] < ix[b]
	})
	nb := (len(ix) + denseBlockMax - 1) / denseBlockMax
	cut := len(ix) * (nb / 2) / nb
	return bisect(bisect(out, ix[:cut], ctr), ix[cut:], ctr)
}

var (
	_ Operator    = (*DenseOperator)(nil)
	_ NearBlocker = (*DenseOperator)(nil)
)
