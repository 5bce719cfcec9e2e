package mpi

import (
	"parbem/internal/assembly"
	"parbem/internal/basis"
	"parbem/internal/linalg"
	"parbem/internal/sched"
)

// Message tags of the distributed fill protocol.
const (
	tagPartHeader = 1
	tagPartData   = 2
)

// FillDistributed runs the distributed-memory system setup of paper
// Section 5.2 / Figures 5 and 6 on the given network, one thread and one
// k-partition per rank as in the paper: every rank holds a private copy
// of the template definitions and computes the entries of P~ in its
// k-partition into a partial matrix P_Kd — the contiguous packed rows of
// P's lower triangle its partition condenses into; ranks d != 0 send
// theirs to the main rank, which fills its own rows of P in place and
// adds each received run at its rows' offset. The returned matrix (rank
// 0's result) is the unscaled P as its packed lower triangle, and bitwise
// the one assembly.FillSerial returns: partitions are aligned to rows of
// P, so no entry's sum is split across ranks.
//
// Ranks share no memory, so each integrates the symmetry classes of its
// partition into a table of its own (in.Pairs is not used) and reports
// its work counters in its header message; rank 0 credits the sum to in.
// A class value is a pure function of its key, so a class that several
// ranks integrate has the same bits on each. Each rank's block memo is its
// own too, so its PairMemo counts the pairs of its partition that its memo
// served.
func FillDistributed(set *basis.Set, in *assembly.Integrator, net *Network) *linalg.Sym {
	size := net.size
	bounds := rankBounds(set, size)

	var result *linalg.Sym
	RunOn(net, func(c *Comm) {
		// Each process holds its own copy of the template definitions
		// (paper: "the process d holds its own copy of template
		// definitions"); this also guarantees no shared mutable state.
		local := set.Clone()
		rin := &assembly.Integrator{Cfg: in.Cfg}
		lo, hi := bounds[c.Rank()], bounds[c.Rank()+1]

		if c.Rank() != 0 {
			part := assembly.NewPartial(local, lo, hi)
			assembly.FillRanges(local, rin, []int64{lo, hi}, sched.Local(1), part)
			st := rin.FillStats()
			c.SendInts(0, tagPartHeader, []int{part.RowLo, part.RowHi,
				int(st.PairsFar), int(st.PairsNear), int(st.PairMemo), int(st.PairSequential), int(st.ClassesIntegrated), int(st.TableBytes)})
			if part.RowHi >= part.RowLo {
				c.SendFloat64s(0, tagPartData, part.Data)
			}
			return
		}

		// Main process: own partition in place, then the incoming
		// partial matrices, into P.
		P := linalg.NewSym(local.N())
		assembly.FillRanges(local, rin, []int64{lo, hi}, sched.Local(1), assembly.WholePartial(P))
		st := rin.FillStats()
		for r := 1; r < size; r++ {
			hdr := c.RecvInts(r, tagPartHeader)
			st.Add(assembly.FillStats{PairsFar: int64(hdr[2]), PairsNear: int64(hdr[3]), PairMemo: int64(hdr[4]),
				PairSequential: int64(hdr[5]), ClassesIntegrated: int64(hdr[6]), TableBytes: int64(hdr[7])})
			if hdr[1] >= hdr[0] {
				part := &assembly.Partial{RowLo: hdr[0], RowHi: hdr[1], Data: c.RecvFloat64s(r, tagPartData)}
				part.MergeInto(P)
			}
		}
		in.AddFillStats(st)
		result = P
	})
	return result
}

// rankBounds is the k-partition of FillDistributed: one contiguous
// k-partition per rank (Figure 5/6), the paper's equal division moved to
// row boundaries. Every rank computes the same partition
// deterministically, so no coordination is needed.
func rankBounds(set *basis.Set, size int) []int64 {
	return assembly.AlignColumns(set, assembly.PartitionK(assembly.NumPairs(set.M()), size))
}
