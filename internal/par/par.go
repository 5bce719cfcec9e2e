// Package par implements the shared-memory parallel system setup of paper
// Section 5.1 / Figure 4: the k-range of Algorithm 1 is split into
// contiguous partitions and D workers (the OpenMP-thread analog) compute
// their template interactions. Where the paper has each worker fill a
// private partial matrix and merge it under a mutex, the partitions here
// are moved to rows of P (assembly.AlignColumns), so they own disjoint
// rows of the shared system matrix's packed lower triangle and accumulate
// into it directly.
//
// There is one schedule. The paper's Algorithm 1 gives each of the D
// workers one equal partition; that balances pairs, not work, and since
// the fill integrates each symmetry class of template pairs once the
// work is bimodal — a pair costs a table lookup unless it is the first
// of its class (its like under translations, reflections and axis
// permutations), which costs an integration, and which pairs come first
// no static division can know. So the k-range is cut into
// chunksPerWorker*D contiguous chunks that the workers claim one at a
// time from a shared counter (internal/sched: one atomic add per claim),
// OpenMP's "schedule(dynamic)". The matrix is bitwise the one
// assembly.FillSerial returns whatever the chunking.
package par

import (
	"runtime"

	"parbem/internal/assembly"
	"parbem/internal/basis"
	"parbem/internal/linalg"
	"parbem/internal/sched"
)

// Options configures the shared-memory fill.
type Options struct {
	// Workers is the number of parallel computing nodes D. Zero means
	// runtime.GOMAXPROCS(0).
	Workers int
	// Pool, when non-nil, runs the chunks on a shared persistent worker
	// pool (the batch engine's worker set) alongside the caller, instead
	// of spawning Workers-1 goroutines for this call alone. The pool's
	// size then determines the parallelism; Workers still controls the
	// chunk count.
	Pool *sched.Pool
}

// chunksPerWorker is how many chunks the k-range is cut into per worker;
// the shared queue they are claimed from is the scheduler's claim counter.
// The last readings of the ablation that compared it with the paper's one
// equal partition per worker, before that mode was deleted (6x6 bus,
// D = 4 on a 2-vCPU host, ms per fill): 16.0, 15.9, 12.0 static against
// 9.13, 9.07, 9.11 at 16 chunks per worker when both vCPUs were free;
// 18.1, 17.3, 15.6, 15.1 against 17.8, 15.1, 15.1, 14.5 on a day they
// shared one core, where no schedule has an idle worker to feed.
const chunksPerWorker = 16

// FillSym runs the parallelized system setup and returns the unscaled
// system matrix P as its packed lower triangle.
func FillSym(set *basis.Set, in *assembly.Integrator, opt Options) *linalg.Sym {
	d := opt.Workers
	if d <= 0 {
		d = runtime.GOMAXPROCS(0)
	}
	P := linalg.NewSym(set.N())
	// FillRanges moves the boundaries to rows of P.
	bounds := assembly.PartitionK(assembly.NumPairs(set.M()), d*chunksPerWorker)

	var ex sched.Executor = opt.Pool
	if opt.Pool == nil {
		ex = sched.Local(d)
	}
	assembly.FillRanges(set, in, bounds, ex, assembly.WholePartial(P))
	return P
}

// Fill is FillSym with both triangles of P written out, for callers that
// want the full N×N: bench/'s traced recomposition of an extraction, and
// par's tests.
func Fill(set *basis.Set, in *assembly.Integrator, opt Options) *linalg.Dense {
	return FillSym(set, in, opt).Dense()
}
