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
// k-partition into a partial matrix P_Kd; ranks d != 0 serialize their
// partials and send them to the main rank, which shifts each slab to its
// column offset and accumulates into P. The returned matrix (rank 0's
// result) is symmetrized and unscaled, and bitwise the one
// assembly.FillSerial returns: partitions are aligned to columns of P, so
// no entry's sum is split across ranks.
//
// Ranks share no memory, so each integrates the symmetry classes of its
// partition into a table of its own (in.Pairs is not used) and reports
// its work counters in its header message; rank 0 credits the sum to in.
// A class value is a pure function of its key, so a class that several
// ranks integrate has the same bits on each. Each rank's block memo is its
// own too, so its PairMemo counts the pairs of its partition that its memo
// served.
func FillDistributed(set *basis.Set, in *assembly.Integrator, net *Network) *linalg.Dense {
	size := net.size
	// One contiguous k-partition per rank (Figure 5/6), the paper's equal
	// division moved to column boundaries (every rank computes the same
	// partition deterministically, so no coordination is needed).
	bounds := assembly.AlignColumns(set, assembly.PartitionK(assembly.NumPairs(set.M()), size))

	var result *linalg.Dense
	RunOn(net, func(c *Comm) {
		// Each process holds its own copy of the template definitions
		// (paper: "the process d holds its own copy of template
		// definitions"); this also guarantees no shared mutable state.
		local := set.Clone()
		rin := &assembly.Integrator{Cfg: in.Cfg}
		lo, hi := bounds[c.Rank()], bounds[c.Rank()+1]
		part := assembly.NewPartial(local, lo, hi)
		assembly.FillRanges(local, rin, []int64{lo, hi}, sched.Local(1), part)
		st := rin.FillStats()

		if c.Rank() != 0 {
			c.SendInts(0, tagPartHeader, []int{part.ColLo, part.ColHi,
				int(st.PairsFar), int(st.PairsNear), int(st.PairMemo), int(st.PairSequential), int(st.ClassesIntegrated), int(st.TableBytes)})
			if part.ColHi >= part.ColLo {
				c.SendFloat64s(0, tagPartData, part.Data.Data)
			}
			return
		}

		// Main process: own partition, then the incoming partial
		// matrices, into P.
		n := local.N()
		P := linalg.NewDense(n, n)
		part.MergeInto(P)
		for r := 1; r < size; r++ {
			hdr := c.RecvInts(r, tagPartHeader)
			colLo, colHi := hdr[0], hdr[1]
			st.Add(assembly.FillStats{PairsFar: int64(hdr[2]), PairsNear: int64(hdr[3]), PairMemo: int64(hdr[4]),
				PairSequential: int64(hdr[5]), ClassesIntegrated: int64(hdr[6]), TableBytes: int64(hdr[7])})
			if colHi < colLo {
				continue
			}
			data := c.RecvFloat64s(r, tagPartData)
			part := &assembly.Partial{
				N: n, ColLo: colLo, ColHi: colHi,
				Data: linalg.NewDenseFrom(n, colHi-colLo+1, data),
			}
			part.MergeInto(P)
		}
		P.MirrorUpper()
		in.AddFillStats(st)
		result = P
	})
	return result
}
