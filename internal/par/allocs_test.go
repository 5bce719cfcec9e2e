package par

// Allocation-regression guard: the fillbench benchmarks document that the
// integration hot path (assembly.Integrator inside Fill) is
// allocation-free; this test enforces the invariant with
// testing.AllocsPerRun so a regression fails CI instead of only showing
// up in benchmark numbers.

import (
	"runtime"
	"testing"

	"parbem/internal/assembly"
	"parbem/internal/basis"
	"parbem/internal/geom"
	"parbem/internal/quad"
)

func TestTemplatePairAllocationFree(t *testing.T) {
	st := geom.DefaultBus(4, 4).Build()
	set := basis.Build(st, basis.DefaultBuilderOptions())
	in := assembly.NewIntegrator()

	// Warm the global Gauss-rule cache: rule construction is a one-time
	// setup cost, not part of the steady-state hot path.
	for n := 1; n <= quad.MaxOrder; n++ {
		quad.Gauss(n)
	}

	// Sweep a deterministic sample of template pairs covering every
	// dispatch class (far, mid, flat-flat, strip, same-axis, cross-axis,
	// generic) and require zero allocations for each.
	m := set.M()
	pairs := 0
	for i := 0; i < m; i += 7 {
		for j := i; j < m; j += 11 {
			ti, tj := &set.Templates[i], &set.Templates[j]
			if allocs := testing.AllocsPerRun(10, func() {
				in.TemplatePair(ti, tj)
			}); allocs != 0 {
				t.Fatalf("TemplatePair(%d, %d) allocates %.0f objects per call", i, j, allocs)
			}
			pairs++
		}
	}
	if pairs < 50 {
		t.Fatalf("only %d pairs sampled; widen the sweep", pairs)
	}
}

// TestInternedPairAllocationFree is the same guard for the path fills take:
// a pair served from the class table allocates nothing, and a pair whose
// class has to be integrated and stored allocates nothing either once the
// classes' quadrature nodes exist — except the store that finds the table
// full, which installs the next generation: the generation, its page
// directory, its first page, and an index of the size the last one grew to
// with its header, genObjects in all. The miss case runs on a table with
// the smallest bound, one page, so every sweep rolls it several times.
func TestInternedPairAllocationFree(t *testing.T) {
	const genObjects, bound = 5, 256
	st := geom.DefaultBus(4, 4).Build()
	set := basis.Build(st, basis.DefaultBuilderOptions())
	m := set.M()
	sweep := func(f *assembly.Interned) func() {
		return func() {
			for i := 0; i < m; i++ {
				for j := i; j < m; j += 2 {
					f.Pair(i, j)
				}
			}
		}
	}

	hit := assembly.NewIntegrator()
	hit.Pairs = assembly.NewPairCache(0)
	if allocs := testing.AllocsPerRun(5, sweep(hit.Intern(set))); allocs != 0 {
		t.Errorf("warm table: a sweep of Pair calls allocates %.0f objects", allocs)
	}
	if n := hit.FillStats().ClassesIntegrated; n == 0 || int64(hit.Pairs.Len()) != n {
		t.Errorf("warm table: %d entries for %d classes", hit.Pairs.Len(), n)
	}

	miss := assembly.NewIntegrator()
	miss.Pairs = assembly.NewPairCache(1)
	f := miss.Intern(set)
	run := sweep(f)
	run()
	run() // the classes' quadrature nodes exist, the index is at full size
	// The store that is number 1 modulo the bound opens a generation.
	opened := func() int64 { return (miss.FillStats().ClassesIntegrated + bound - 1) / bound }
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	gens := opened()
	runtime.ReadMemStats(&m0)
	for r := 0; r < 5; r++ {
		run()
	}
	runtime.ReadMemStats(&m1)
	gens = opened() - gens
	if gens < 5 || miss.Pairs.Len() > bound {
		t.Fatalf("rolling table: %d generations over 5 sweeps, %d entries", gens, miss.Pairs.Len())
	}
	// The runtime's own background objects get the slack AllocsPerRun's
	// rounding would give them; one more object per generation is 85.
	if objects := int64(m1.Mallocs - m0.Mallocs); objects > genObjects*gens+16 {
		t.Errorf("rolling table: 5 sweeps through %d generations allocate %d objects, want %d per generation and none between",
			gens, objects, genObjects)
	}

	// Interning is one pass over the templates: on a table that knows the
	// classes it allocates its two slices and nothing per template.
	if allocs := testing.AllocsPerRun(5, func() { miss.Intern(set) }); allocs > 2 {
		t.Errorf("Intern allocates %.0f objects for %d templates", allocs, m)
	}
}

// TestFillSteadyStateAllocs bounds the allocations of a whole Fill call:
// everything allocated is the matrix, the interned templates, the
// scheduler's job and the class table's pages (one per 256 classes),
// none of it per pair. The bound is deliberately generous; the point is
// that the integration inner loop contributes nothing.
func TestFillSteadyStateAllocs(t *testing.T) {
	st := geom.DefaultBus(3, 3).Build()
	set := basis.Build(st, basis.DefaultBuilderOptions())
	in := assembly.NewIntegrator()
	opt := Options{Workers: 2}
	Fill(set, in, opt) // warm rule caches and partition code paths

	allocs := testing.AllocsPerRun(3, func() {
		Fill(set, in, opt)
	})
	// 2 workers x 16 chunks/worker of scheduler state and the table's
	// dozen pages and indexes are a hundred objects; the ~58k pair
	// integrals must add zero.
	if allocs > 2000 {
		t.Fatalf("Fill allocates %.0f objects per call; integration hot path is no longer allocation-free", allocs)
	}
}
