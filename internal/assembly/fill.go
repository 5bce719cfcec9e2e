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
// matrix P: a dense slab covering columns [ColLo, ColHi] of P's upper
// triangle (paper Figure 5). Because the template owner array is
// non-decreasing, the columns touched by a contiguous k-range are
// contiguous.
type Partial struct {
	N            int
	ColLo, ColHi int           // inclusive column range of P
	Data         *linalg.Dense // N x (ColHi-ColLo+1)
}

// NewPartial allocates the zero slab that the k-range [kLo, kHi) of set
// condenses into.
func NewPartial(set *basis.Set, kLo, kHi int64) *Partial {
	p := &Partial{N: set.N(), ColLo: 0, ColHi: -1}
	if kHi > kLo {
		_, jFirst := KToIJ(kLo)
		_, jLast := KToIJ(kHi - 1)
		p.ColLo, p.ColHi = set.Owner[jFirst], set.Owner[jLast]
	}
	p.Data = linalg.NewDense(p.N, p.ColHi-p.ColLo+1)
	return p
}

// WholePartial views the full N x N matrix P as the slab of the whole
// k-range, so a fill can accumulate into P directly.
func WholePartial(P *linalg.Dense) *Partial {
	return &Partial{N: P.Rows, ColLo: 0, ColHi: P.Cols - 1, Data: P}
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
func (f *Interned) fillRange(dst *Partial, kLo, kHi int64) {
	var c FillStats
	owner := f.set.Owner
	i, j := KToIJ(kLo)
	for k := kLo; k < kHi; k++ {
		v := f.PairInto(i, j, &c)
		li, lj := owner[i], owner[j]
		if i != j && li == lj {
			v *= 2
		}
		dst.Data.Add(li, lj-dst.ColLo, v)
		if i++; i > j {
			i, j = 0, j+1
		}
	}
	f.in.AddFillStats(c)
}

// FillRanges is the core of every fill path: it interns the set once,
// then computes each k-chunk [bounds[t], bounds[t+1]) on the executor —
// whose claimers take the chunks in order from one counter — accumulating
// straight into dst, which must cover the columns of
// [bounds[0], bounds[len-1]).
//
// Chunks run concurrently without a lock or a private slab, so no two of
// them may touch the same column of P: the interior boundaries are moved
// to column starts first (AlignColumns). Every entry of P is then summed
// by one chunk in k order, whatever the partition, worker count or
// backend, and since class values are pure functions of their keys the
// filled matrix is bitwise reproducible — provided callers that split
// the k-range between FillRanges calls align those splits too.
//
// The shared-memory backend passes sched.Local or a shared sched.Pool and
// the whole matrix; a distributed-memory rank passes a rank-local
// executor and its private slab, which it then serializes onto the
// network.
func FillRanges(set *basis.Set, in *Integrator, bounds []int64, ex sched.Executor, dst *Partial) {
	f := in.Intern(set)
	bounds = AlignColumns(set, bounds)
	ex.Map(len(bounds)-1, func(t int) {
		if lo, hi := bounds[t], bounds[t+1]; hi > lo {
			f.fillRange(dst, lo, hi)
		}
	})
	if f.pairs != nil {
		in.AddFillStats(FillStats{TableBytes: f.pairs.Bytes()})
	}
}

// MergeInto adds the partial slab into the full upper-triangular matrix P.
func (p *Partial) MergeInto(P *linalg.Dense) {
	for i := 0; i < p.N; i++ {
		row := p.Data.Row(i)
		dst := P.Row(i)
		for c, v := range row {
			if v != 0 {
				dst[p.ColLo+c] += v
			}
		}
	}
}

// FillSerial runs Algorithm 1 on a single node: the full k-range,
// symmetrized. The returned matrix is the unscaled P (multiply by
// 1/(4*pi*eps) for physical units).
func FillSerial(set *basis.Set, in *Integrator) *linalg.Dense {
	P := linalg.NewDense(set.N(), set.N())
	FillRanges(set, in, []int64{0, NumPairs(set.M())}, sched.Local(1), WholePartial(P))
	P.MirrorUpper()
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
// to the nearest k at which a new column of P starts (the first pair of a
// basis function's first template). Aligned chunks touch disjoint columns
// of P — unaligned neighbours share one (paper Figure 5) — which is what
// lets FillRanges run them without a lock and makes the sum behind every
// entry of P independent of the partition. Chunks stay contiguous in k
// and within one column's worth of pairs of the requested sizes.
//
// The partitions it is applied to are the paper's equal-count divisions,
// not cost-weighted ones: a pair costs a table lookup unless it is the
// first of its symmetry class, which no static estimate can know, so
// balance is left to dynamic chunking.
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
