// Package par implements the shared-memory parallel system setup of paper
// Section 5.1 / Figure 4: the k-range of Algorithm 1 is split into
// contiguous partitions and D workers (the OpenMP-thread analog) compute
// their template interactions. Where the paper has each worker fill a
// private partial matrix and merge it under a mutex, the partitions here
// are moved to columns of P (assembly.AlignColumns), so they own
// disjoint parts of the shared system matrix and accumulate into it
// directly.
//
// Two scheduling modes are provided. Static mode is the paper's Algorithm
// 1: exactly D equal partitions. The default dynamic mode keeps the same
// contiguous-partition structure but splits the k-range into
// ChunksPerWorker*D chunks claimed from a shared queue — the standard
// OpenMP "schedule(dynamic)" refinement that absorbs the cost variance
// between template pairs, which is large: a pair costs a table lookup
// unless it is the first of its symmetry class (its like under
// translations, reflections and axis permutations). The ablation benchmark
// (BenchmarkAblationDivision) quantifies the difference. Either way the
// matrix is bitwise the one assembly.FillSerial returns.
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
	// Static selects the paper's exact equal division into D partitions
	// instead of dynamic chunking.
	Static bool
	// ChunksPerWorker sets the dynamic-mode chunk count multiplier
	// (default 16).
	ChunksPerWorker int
	// Pool, when non-nil, runs the chunks on a shared persistent
	// work-stealing pool (the batch engine's worker set) instead of
	// spawning Workers goroutines for this call alone. The pool's size
	// then determines the parallelism; Workers still controls the chunk
	// count.
	Pool *sched.Pool
}

// Fill runs the parallelized system setup and returns the symmetrized,
// unscaled system matrix P.
func Fill(set *basis.Set, in *assembly.Integrator, opt Options) *linalg.Dense {
	d := opt.Workers
	if d <= 0 {
		d = runtime.GOMAXPROCS(0)
	}
	cpw := opt.ChunksPerWorker
	if cpw <= 0 {
		cpw = 16
	}
	n := set.N()
	P := linalg.NewDense(n, n)
	K := assembly.NumPairs(set.M())

	nparts := d // the paper's Algorithm 1: one equal partition per node
	if !opt.Static {
		nparts = d * cpw
	}
	bounds := assembly.PartitionK(K, nparts) // FillRanges moves them to columns of P

	var ex sched.Executor = opt.Pool
	if opt.Pool == nil {
		ex = sched.Local(d)
	}
	assembly.FillRanges(set, in, bounds, ex, assembly.WholePartial(P))
	assembly.Symmetrize(P)
	return P
}
