package op

import (
	"errors"

	"parbem/internal/linalg"
	"parbem/internal/sched"
)

// bjBlock is one factorized near block.
type bjBlock struct {
	idx []int32
	f   *linalg.LDLT // nil when the block fell back to its diagonal
	inv []float64    // diagonal fallback for blocks that are not positive definite
}

// BlockJacobi is the pipeline's one preconditioner, near-field
// block-Jacobi: it approximates dst = M^{-1} r for the right-preconditioned
// Krylov solve. The operator's disjoint near blocks are factorized once at
// construction (linalg.FactorSym, in the packed block itself), and Apply
// solves every block system in place. Unknowns outside all blocks (and
// blocks that are not numerically positive definite, e.g. a cluster block
// assembled from an incomplete pair list) fall back to point-Jacobi on
// their diagonal, so over no blocks at all it is point-Jacobi.
type BlockJacobi struct {
	n      int
	blocks []bjBlock
	// invDiag covers unknowns outside every block (nil entries = 0
	// means identity pass-through; populated from the blocks'
	// diagonals for covered unknowns that fall back).
	invDiag []float64
	covered []bool

	// scratch manages the gather/solve buffer: warm dedicated value for
	// the one-Apply-at-a-time case (one solve), pooled overflow for
	// concurrent Applies (two solves on one pipeline).
	scratch *sched.Scratch[*[]float64]
	maxBlk  int

	reusedFactors int
}

// NewBlockJacobiWith factorizes the disjoint near blocks of an n-unknown
// operator. idx[k] lists block k's unknowns and block(k) returns a fresh
// packed lower triangle of the sub-matrix over them (NearBlocker's
// block), which is factored in place. diag supplies the exact matrix
// diagonal used for unknowns no block covers (nil = identity there).
// factors is an optional lookup of previously computed factors: when it
// returns a non-nil factor of the block's order, that factor is adopted
// instead of re-factorizing, and the block's entries are never asked for
// (the staged extraction plans carry unchanged blocks' factors across
// geometry variants this way).
func NewBlockJacobiWith(n int, idx [][]int32, block func(k int) *linalg.Sym, diag []float64,
	factors func(idx []int32) *linalg.LDLT) (*BlockJacobi, error) {
	bj := &BlockJacobi{
		n:       n,
		covered: make([]bool, n),
		invDiag: make([]float64, n),
	}
	for i := range bj.invDiag {
		bj.invDiag[i] = 1
	}
	if diag != nil {
		for i, d := range diag {
			if d > 0 {
				bj.invDiag[i] = 1 / d
			}
		}
	}
	for k, ix := range idx {
		if len(ix) == 0 {
			continue
		}
		for _, i := range ix {
			if bj.covered[i] {
				return nil, errors.New("op: near blocks overlap")
			}
			bj.covered[i] = true
		}
		blk := bjBlock{idx: ix}
		if factors != nil {
			if f := factors(ix); f != nil && f.N() == len(ix) {
				blk.f = f
				bj.reusedFactors++
			}
		}
		if blk.f == nil { // not adopted from a previous variant
			b := block(k)
			if b.N != len(ix) {
				return nil, errors.New("op: near block shape mismatch")
			}
			if f, err := linalg.FactorSym(b); err == nil && f.Inertia().Negative == 0 {
				blk.f = f
			} else {
				// Not numerically positive definite (possible for cluster
				// blocks with zero-filled missing pairs): fall back to this
				// block's diagonal, read from a fresh copy because the
				// factorization overwrote b.
				b = block(k)
				blk.inv = make([]float64, len(ix))
				for t := range ix {
					if d := b.At(t, t); d > 0 {
						blk.inv[t] = 1 / d
					} else {
						blk.inv[t] = 1
					}
				}
			}
		}
		bj.blocks = append(bj.blocks, blk)
		bj.maxBlk = max(bj.maxBlk, len(ix))
	}
	bj.scratch = sched.NewScratch(func() *[]float64 {
		buf := make([]float64, bj.maxBlk)
		return &buf
	})
	return bj, nil
}

// Blocks returns the number of factorized blocks (diagnostics).
func (bj *BlockJacobi) Blocks() int { return len(bj.blocks) }

// ReusedFactors reports how many block factors were adopted through the
// NewBlockJacobiWith lookup instead of factorized fresh.
func (bj *BlockJacobi) ReusedFactors() int { return bj.reusedFactors }

// Factors exposes the factorized blocks (idx[k] lists block k's
// unknowns, f[k] its factor, nil for diagonal-fallback blocks). Both
// slices and their contents are shared and must be treated as
// read-only; the staged extraction plans key them by idx to seed the
// next variant's NewBlockJacobiWith lookup.
func (bj *BlockJacobi) Factors() (idx [][]int32, f []*linalg.LDLT) {
	idx = make([][]int32, len(bj.blocks))
	f = make([]*linalg.LDLT, len(bj.blocks))
	for k := range bj.blocks {
		idx[k] = bj.blocks[k].idx
		f[k] = bj.blocks[k].f
	}
	return idx, f
}

// Apply gathers each block's residual, solves the factorized block
// system and scatters the result; uncovered unknowns get the point-Jacobi
// fallback. One solve applies it one call at a time (the columns are
// solved in order); it is still safe for concurrent use, because a
// Pipeline's Extract methods are, and allocation-free after warmup.
func (bj *BlockJacobi) Apply(dst, r []float64) {
	sp := bj.scratch.Acquire()
	scratch := *sp
	for i := range dst {
		if !bj.covered[i] {
			dst[i] = r[i] * bj.invDiag[i]
		}
	}
	for k := range bj.blocks {
		blk := &bj.blocks[k]
		if blk.f == nil {
			for t, i := range blk.idx {
				dst[i] = r[i] * blk.inv[t]
			}
			continue
		}
		buf := scratch[:len(blk.idx)]
		for t, i := range blk.idx {
			buf[t] = r[i]
		}
		blk.f.SolveVec(buf)
		for t, i := range blk.idx {
			dst[i] = buf[t]
		}
	}
	bj.scratch.Release(sp)
}
