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

// FillOptions tunes the distributed fill beyond the paper's baseline.
type FillOptions struct {
	// ThreadsPerRank runs the rank-local fill on this many goroutine
	// "threads" through the shared work-stealing scheduler (the hybrid
	// MPI+OpenMP layout of real BEM codes). Zero or one keeps the
	// paper's one-thread-per-process model.
	ThreadsPerRank int
	// ChunksPerThread sets how many chunks each rank splits its
	// partition into per thread (default 4; more chunks smooth residual
	// imbalance inside the rank).
	ChunksPerThread int
}

// FillDistributed runs the distributed-memory system setup of paper
// Section 5.2 / Figures 5 and 6 on the given network with the default
// one-thread-per-rank layout.
func FillDistributed(set *basis.Set, in *assembly.Integrator, net *Network) *linalg.Dense {
	return FillDistributedOpts(set, in, net, FillOptions{})
}

// FillDistributedOpts is FillDistributed with explicit fill options: every
// rank holds a private copy of the template definitions and computes the
// entries of P~ in its k-partition into a partial matrix P_Kd; ranks
// d != 0 serialize their partials and send them to the main rank, which
// shifts each slab to its column offset and accumulates into P. The
// returned matrix (rank 0's result) is symmetrized and unscaled, and
// bitwise the one assembly.FillSerial returns: partitions are aligned to
// columns of P, so no entry's sum is split across ranks or chunks.
//
// Ranks share no memory, so each integrates the symmetry classes of its
// partition into a table of its own (in.Pairs is not used) and reports
// its work counters in its header message; rank 0 credits the sum to in.
// A class value is a pure function of its key, so a class that several
// ranks integrate has the same bits on each.
//
// The rank-local fill runs through the same chunk scheduler as the
// shared-memory backend (assembly.FillRanges): the rank's k-range is
// re-chunked and executed on ThreadsPerRank local workers, accumulating
// into the rank's partial.
func FillDistributedOpts(set *basis.Set, in *assembly.Integrator, net *Network, fo FillOptions) *linalg.Dense {
	size := net.size
	threads := fo.ThreadsPerRank
	if threads <= 0 {
		threads = 1
	}
	cpt := fo.ChunksPerThread
	if cpt <= 0 {
		cpt = 4
	}
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
		rin := &assembly.Integrator{Cfg: in.Cfg, Tab: in.Tab}
		lo, hi := bounds[c.Rank()], bounds[c.Rank()+1]
		part := assembly.NewPartial(local, lo, hi)
		assembly.FillRanges(local, rin, assembly.PartitionRange(lo, hi, threads*cpt), sched.Local(threads), part)
		st := rin.FillStats()

		if c.Rank() != 0 {
			c.SendInts(0, tagPartHeader, []int{part.ColLo, part.ColHi,
				int(st.PairsFar), int(st.PairsNear), int(st.ClassesIntegrated), int(st.TableBytes)})
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
			st.Add(assembly.FillStats{PairsFar: int64(hdr[2]), PairsNear: int64(hdr[3]),
				ClassesIntegrated: int64(hdr[4]), TableBytes: int64(hdr[5])})
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
		assembly.Symmetrize(P)
		in.AddFillStats(st)
		result = P
	})
	return result
}
