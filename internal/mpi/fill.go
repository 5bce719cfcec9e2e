package mpi

import (
	"parbem/internal/assembly"
	"parbem/internal/basis"
	"parbem/internal/kernel"
	"parbem/internal/linalg"
	"parbem/internal/sched"
)

// FillDistributed runs the distributed-memory system setup of paper
// Section 5.2 / Figures 5 and 6 on the given network's ranks, one thread
// and one k-partition per rank as in the paper: every rank fills the
// entries of P~ in its k-partition into a partial matrix P_Kd of its own —
// the contiguous packed rows of P's lower triangle its partition condenses
// into — and rank 0 fills its rows of P in place. The caller then adds the
// rows of ranks 1…D−1 into P in rank order. The returned matrix is the
// unscaled P as its packed lower triangle, and bitwise the one
// assembly.FillSerial returns: partitions are aligned to rows of P, so no
// entry's sum is split across ranks.
//
// Each rank integrates the symmetry classes of its partition into a table
// of its own (in.Pairs is not used); the ranks' summed work counters are
// credited to in. A class value is a pure function of its key, so a class
// that several ranks integrate has the same bits on each. Each rank's
// block memo is its own too, so its PairMemo counts the pairs of its
// partition that its memo served.
func FillDistributed(set *basis.Set, in *assembly.Integrator, net *Network) *linalg.Sym {
	bounds := rankBounds(set, net.size)
	P := linalg.NewSym(set.N())
	parts := make([]*assembly.Partial, net.size)
	stats := make([]assembly.FillStats, net.size)
	sched.Local(net.size).Map(net.size, func(d int) {
		parts[d], stats[d] = fillRank(set, in.Cfg, bounds, d, P)
	})
	var st assembly.FillStats
	for d, part := range parts {
		if d != 0 {
			part.MergeInto(P)
		}
		st.Add(stats[d])
	}
	in.AddFillStats(st)
	return P
}

// fillRank is the work of rank d: it fills the k-partition
// [bounds[d], bounds[d+1]) of its own copy of the template definitions
// (paper: "the process d holds its own copy of template definitions")
// through an integrator of its own, so it shares no mutable state with
// another rank. Rank 0 fills P in place; every other rank fills a partial
// of its own rows, which it returns with its work counters.
func fillRank(set *basis.Set, cfg *kernel.Config, bounds []int64, d int, P *linalg.Sym) (*assembly.Partial, assembly.FillStats) {
	local := set.Clone()
	in := &assembly.Integrator{Cfg: cfg}
	lo, hi := bounds[d], bounds[d+1]
	part := assembly.WholePartial(P)
	if d != 0 {
		part = assembly.NewPartial(local, lo, hi)
	}
	assembly.FillRanges(local, in, []int64{lo, hi}, sched.Local(1), part)
	return part, in.FillStats()
}

// rankBounds is the k-partition of FillDistributed: one contiguous
// k-partition per rank (Figure 5/6), the paper's equal division moved to
// row boundaries.
func rankBounds(set *basis.Set, size int) []int64 {
	return assembly.AlignColumns(set, assembly.PartitionK(assembly.NumPairs(set.M()), size))
}
