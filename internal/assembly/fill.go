package assembly

import (
	"math"

	"parbem/internal/basis"
	"parbem/internal/linalg"
	"parbem/internal/sched"
)

// NumPairs returns K = M*(M+1)/2, the number of upper-triangular template
// pairs iterated by Algorithm 1.
func NumPairs(m int) int64 {
	return int64(m) * int64(m+1) / 2
}

// KToIJ converts the flat work index k (0 <= k < M(M+1)/2) to template
// indices (i, j) with i <= j, iterating the upper triangle of P~ column by
// column as in Algorithm 1:
//
//	j = floor((-1 + sqrt(1+8k)) / 2),  i = k - j(j+1)/2
func KToIJ(k int64) (i, j int) {
	jj := int64((math.Sqrt(float64(8*k+1)) - 1) / 2)
	// Guard against floating-point boundary errors.
	for (jj+1)*(jj+2)/2 <= k {
		jj++
	}
	for jj*(jj+1)/2 > k {
		jj--
	}
	return int(k - jj*(jj+1)/2), int(jj)
}

// IJToK is the inverse mapping (i <= j required).
func IJToK(i, j int) int64 {
	return int64(j)*int64(j+1)/2 + int64(i)
}

// Partial is the contribution of one contiguous k-range to the condensed
// matrix P: the contiguous run of rows [RowLo, RowHi] of P's packed lower
// triangle that the range's columns of P~ condense into (paper Figure 5;
// row l of P's lower triangle is column l of its upper). Because the
// template owner array is non-decreasing, the rows touched by a
// contiguous k-range are contiguous.
type Partial struct {
	RowLo, RowHi int       // inclusive row range of P
	Data         []float64 // rows RowLo..RowHi, packed as in linalg.Sym
}

// NewPartial allocates the zero rows that the k-range [kLo, kHi) of set
// condenses into.
func NewPartial(set *basis.Set, kLo, kHi int64) *Partial {
	p := &Partial{RowLo: 0, RowHi: -1}
	if kHi > kLo {
		_, jFirst := KToIJ(kLo)
		_, jLast := KToIJ(kHi - 1)
		p.RowLo, p.RowHi = set.Owner[jFirst], set.Owner[jLast]
	}
	p.Data = make([]float64, linalg.PackedLen(p.RowHi+1)-linalg.PackedLen(p.RowLo))
	return p
}

// WholePartial views every row of P as one partial, so a fill can
// accumulate into P directly.
func WholePartial(P *linalg.Sym) *Partial {
	return &Partial{RowLo: 0, RowHi: P.N - 1, Data: P.Data}
}

// MergeInto adds the partial's rows into P.
func (p *Partial) MergeInto(P *linalg.Sym) {
	linalg.Axpy(1, p.Data, P.Data[linalg.PackedLen(p.RowLo):])
}

// fillRange computes all P~ entries for k in [kLo, kHi) and condenses
// them into dst following the accumulation rule of Algorithm 1: an
// off-diagonal template pair whose templates share a basis function
// lands on P's diagonal twice.
//
// (The paper's printed Algorithm 1 guards the doubling with "i = j and
// l_i = l_j"; as Figure 3's text explains, the doubling applies to
// *off-diagonal* P~ entries condensing onto P's diagonal, so the condition
// is implemented here as i != j with l_i = l_j.)
func (f *Interned) fillRange(dst *Partial, t *classBlocks, kLo, kHi int64) {
	var c FillStats
	owner := f.set.Owner
	base := linalg.PackedLen(dst.RowLo)
	i, j := KToIJ(kLo)
	for k := kLo; k < kHi; k++ {
		v := f.blockPair(t, i, j, &c)
		li, lj := owner[i], owner[j]
		if i != j && li == lj {
			v *= 2
		}
		dst.Data[linalg.PackedLen(lj)+li-base] += v
		if i++; i > j {
			i, j = 0, j+1
		}
	}
	f.in.AddFillStats(c)
}

// blockPair is PairInto(i, j, c), to the bit, with the class value read
// through the memo cell of the pair in its block of t (see "Blocks"): only
// the first pair of a cell builds a key. Pairs of templates in no group, and
// of blocks filled pair by pair, go through PairInto.
func (f *Interned) blockPair(t *classBlocks, i, j int, c *FillStats) float64 {
	gi, gj := f.member[i], f.member[j]
	if gi < 0 || gj < 0 {
		return f.PairInto(i, j, c)
	}
	h := &t.hdr[int(gi)*t.ng+int(gj)]
	if h.memo < 0 {
		return f.PairInto(i, j, c)
	}
	a, b := &f.tpl[i], &f.tpl[j]
	if f.beyond(dist2(a, b), a, b) {
		c.PairsFar++
		return farValue(a, b)
	}
	c.PairsNear++
	ri, rj := &f.rank[i], &f.rank[j]
	cell := &t.memo[int(h.memo)+
		int(t.cells[int(h.tab[0])+int(ri[0])*int(h.nb[0])+int(rj[0])])+
		int(t.cells[int(h.tab[1])+int(ri[1])*int(h.nb[1])+int(rj[1])])+
		int(t.cells[int(h.tab[2])+int(ri[2])*int(h.nb[2])+int(rj[2])])]
	bits := cell.Load()
	if bits == 0 {
		v := f.classValue(a, b, c)
		cell.Store(math.Float64bits(v)) // a racing worker stores the same bits
		return a.amp * b.amp * v
	}
	c.PairMemo++
	return a.amp * b.amp * math.Float64frombits(bits)
}

// FillRanges is the core of every fill path: it interns the set once and
// builds its block tables (see "Blocks"), then computes each k-chunk
// [bounds[t], bounds[t+1]) on the executor — whose claimers take the chunks
// in order from one counter — accumulating straight into dst, which must
// cover the rows of [bounds[0], bounds[len-1]).
//
// Chunks run concurrently without a lock or private rows, so no two of
// them may touch the same row of P: the interior boundaries are moved to
// row starts first (AlignColumns). Every entry of P is then summed
// by one chunk in k order, whatever the partition, worker count or
// backend, and since class values are pure functions of their keys the
// filled matrix is bitwise reproducible — provided callers that split
// the k-range between FillRanges calls align those splits too.
//
// The shared-memory backend passes sched.Local or a shared sched.Pool and
// the whole matrix; a distributed-memory rank passes a rank-local
// executor and its private rows, which the main rank adds into P
// afterwards, or, on the main rank, the whole matrix.
func FillRanges(set *basis.Set, in *Integrator, bounds []int64, ex sched.Executor, dst *Partial) {
	f := in.Intern(set)
	blocks := f.classBlocks()
	bounds = AlignColumns(set, bounds)
	ex.Map(len(bounds)-1, func(t int) {
		if lo, hi := bounds[t], bounds[t+1]; hi > lo {
			f.fillRange(dst, blocks, lo, hi)
		}
	})
	if f.pairs != nil {
		in.AddFillStats(FillStats{TableBytes: f.pairs.Bytes()})
	}
}

// FillSerial runs Algorithm 1 on a single node: the full k-range into
// the packed lower triangle. The returned matrix is the unscaled P
// (multiply by 1/(4*pi*eps) for physical units).
func FillSerial(set *basis.Set, in *Integrator) *linalg.Sym {
	P := linalg.NewSym(set.N())
	FillRanges(set, in, []int64{0, NumPairs(set.M())}, sched.Local(1), WholePartial(P))
	return P
}

// PartitionK splits the k-range [0, K) into d near-equal contiguous
// partitions (the paper's equal division; the last partition absorbs the
// remainder). It returns the d+1 boundaries.
func PartitionK(K int64, d int) []int64 {
	if d < 1 {
		d = 1
	}
	bounds := make([]int64, d+1)
	per := K / int64(d)
	for i := range bounds {
		bounds[i] = int64(i) * per
	}
	bounds[d] = K
	return bounds
}

// AlignColumns returns the k-partition with each interior boundary moved
// to the nearest k at which a new column of P~ condenses into a new row of
// P (the first pair of a basis function's first template). Aligned chunks
// touch disjoint rows of P — unaligned neighbours share one (paper Figure
// 5, where it is a column of the upper triangle) — which is what
// lets FillRanges run them without a lock and makes the sum behind every
// entry of P independent of the partition. Chunks stay contiguous in k
// and within one column's worth of pairs of the requested sizes.
//
// The partitions it is applied to are the paper's equal-count divisions,
// not cost-weighted ones: a near pair costs a memo read unless it is the
// first of its memo cell, then a table lookup unless it is the first of its
// symmetry class, which no static estimate can know, so balance is left to
// dynamic chunking.
func AlignColumns(set *basis.Set, bounds []int64) []int64 {
	out := append([]int64(nil), bounds...)
	first, last := out[0], out[len(out)-1]
	for t, k := range out {
		if k <= first || k >= last {
			continue
		}
		_, j := KToIJ(k)
		fn := set.Functions[set.Owner[j]]
		below, above := IJToK(0, fn.TplLo), IJToK(0, fn.TplHi)
		if k-below > above-k {
			below = above
		}
		out[t] = min(max(below, first), last)
	}
	return out
}
