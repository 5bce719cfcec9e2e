package plan

import (
	"context"
	"errors"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"parbem/internal/assembly"
	"parbem/internal/geom"
	"parbem/internal/op"
	"parbem/internal/sched"
)

// cancelAfterMap runs every Map on ex and, while armed (cancel set), calls
// cancel once the Map has returned. A dense build's first Map is its matrix
// fill, so an armed build stops at the checkpoint after its near stage.
type cancelAfterMap struct {
	ex     sched.Executor
	cancel context.CancelFunc
}

func (c *cancelAfterMap) Map(n int, fn func(task int)) {
	c.ex.Map(n, fn)
	if c.cancel != nil {
		c.cancel()
	}
}

// TestInterruptedDenseVariant pins the interrupt contract of the in-place
// dense fill: a variant stopped after its near stage, which has rewritten
// the previous variant's matrix, leaves the plan on the previous variant —
// its geometry still a cache hit with its C — but without that matrix, so
// the next variant keeps no entry and its C is bitwise a fresh plan's.
func TestInterruptedDenseVariant(t *testing.T) {
	ex := &cancelAfterMap{ex: sched.Local(2)}
	pipe := op.Options{Backend: op.BackendDense, Direct: true}
	p, err := New(Options{MaxEdge: 0.4e-6, Exec: ex, Pipeline: pipe})
	if err != nil {
		t.Fatal(err)
	}
	old, err := p.Extract(crossingAt(0.5e-6))
	if err != nil {
		t.Fatal(err)
	}
	oldC := old.C.Clone()

	ctx, cancel := context.WithCancel(context.Background())
	ex.cancel = cancel
	_, err = p.ExtractCtx(ctx, crossingAt(0.6e-6))
	ex.cancel = nil
	var ie *op.Interrupted
	if !errors.As(err, &ie) || ie.Stage != "factorize" {
		t.Fatalf("want an interrupt at the factorize checkpoint, got %v", err)
	}
	if s := p.Stats(); s.NearBuilds != 2 || s.DenseReused == 0 {
		t.Fatalf("the interrupted variant did not rewrite the previous matrix: %+v", s)
	}

	again, err := p.Extract(crossingAt(0.5e-6))
	if err != nil {
		t.Fatal(err)
	}
	if s := p.Stats(); again != old || s.CacheHits != 1 {
		t.Fatalf("the previous geometry is not a cache hit after the interrupt (%d hits)", s.CacheHits)
	}
	for k, v := range again.C.Data {
		if math.Float64bits(v) != math.Float64bits(oldC.Data[k]) {
			t.Fatalf("the previous geometry's C[%d] moved: %v, was %v", k, v, oldC.Data[k])
		}
	}

	kept := p.Stats().DenseReused
	next, err := p.Extract(crossingAt(0.7e-6))
	if err != nil {
		t.Fatal(err)
	}
	if kept = p.Stats().DenseReused - kept; kept != 0 || next.Reused.NearField {
		t.Errorf("the variant after the interrupt kept %d entries of a matrix the plan no longer holds", kept)
	}
	want := fresh(t, crossingAt(0.7e-6), Options{MaxEdge: 0.4e-6, Pipeline: pipe})
	for k, v := range next.C.Data {
		if math.Float64bits(v) != math.Float64bits(want.C.Data[k]) {
			t.Fatalf("C[%d] = %v, a fresh plan's %v", k, v, want.C.Data[k])
		}
	}
}

// TestDenseVariantAllocatesNoMatrix: a rigid dense variant of the crossing
// pair allocates, over its whole build and solve, fewer bytes than one N x
// N matrix of float64 — it rewrites the previous variant's matrix in place,
// and copies out no near block whose factor it adopts. The class table has
// met the variant's classes before, so what it would add does not count.
func TestDenseVariantAllocatesNoMatrix(t *testing.T) {
	opt := Options{MaxEdge: 0.4e-6, Exec: sched.Local(1), Pipeline: op.Options{Backend: op.BackendDense},
		Pairs: assembly.NewPairCache(0)}
	fresh(t, crossingAt(0.6e-6), opt)
	p, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Extract(crossingAt(0.5e-6)); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := p.Extract(crossingAt(0.6e-6))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	n := uint64(res.NumPanels)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("N = %d: the variant allocated %d bytes, %.2f of one N x N matrix", n, got, float64(got)/float64(8*n*n))
	if !res.Reused.NearField || !res.Reused.Factorization {
		t.Fatalf("not a rigid variant: %+v", res.Reused)
	}
	if got >= 8*n*n {
		t.Errorf("the variant allocated %d bytes, not below one N x N matrix's %d", got, 8*n*n)
	}
}

// TestReleasedMatrixRefilled: a released one-shot plan's matrix is the
// storage of the next dense build of its size class that has none of its
// own, in another plan, and so is the matrix a variant abandons when its
// dimension changes; each build into a recycled matrix gives a fresh
// plan's bits, and the released plan's identical repeat is still a hit
// on its kept C. One P and no collection make a recycled matrix the next
// build's.
func TestReleasedMatrixRefilled(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	opt := Options{MaxEdge: 0.4e-6, Pipeline: op.Options{Backend: op.BackendDense}}
	build := func(p *Plan, st *geom.Structure) *Result {
		t.Helper()
		res, err := p.Extract(st)
		if err != nil {
			t.Fatal(err)
		}
		want := fresh(t, st, opt)
		for k, v := range want.C.Data {
			if math.Float64bits(res.C.Data[k]) != math.Float64bits(v) {
				t.Fatalf("C[%d] = %v, a fresh plan's %v", k, res.C.Data[k], v)
			}
		}
		return res
	}
	newPlan := func() *Plan {
		p, err := New(opt)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	a := newPlan()
	old := build(a, crossingAt(0.5e-6))
	oldC := old.C.Clone()
	m := a.cur.dense
	if !a.Release() || a.Holds() {
		t.Fatal("a one-variant plan kept its stages")
	}
	b := newPlan()
	build(b, crossingAt(0.6e-6))
	if b.cur.dense != m && !raceBuild {
		t.Fatalf("N = %d: the new plan's matrix is not the released one", m.N)
	}
	// b's next variant has another dimension, in another size class: it
	// abandons m, and a third plan of m's dimension takes it up.
	build(b, busAt(2, 2, 0.6e-6))
	if b.cur.dense == m || b.cur.dense.N == m.N {
		t.Fatalf("the bus (N = %d) took up the crossing's matrix (N = %d)", b.cur.dense.N, m.N)
	}
	c := newPlan()
	build(c, crossingAt(0.7e-6))
	if c.cur.dense != m && !raceBuild {
		t.Fatal("the matrix abandoned for another dimension was not recycled")
	}

	again, err := a.Extract(crossingAt(0.5e-6))
	if err != nil {
		t.Fatal(err)
	}
	if again != old {
		t.Fatal("the released plan's repeat is not a cache hit")
	}
	for k, v := range oldC.Data {
		if math.Float64bits(again.C.Data[k]) != math.Float64bits(v) {
			t.Fatalf("the released plan's C[%d] moved: %v, was %v", k, again.C.Data[k], v)
		}
	}
}

// TestDenseVariantTakesPooledSearchSpace: a dense Krylov variant of the
// crossing pair (N = 524), its classes in the table (an H revisited),
// solves in the search space the previous variant's solve left in op's
// pool rather than a new one, and allocates at most 250 KB over its build
// and solve; a new space alone is one N-vector pair per direction. A
// collection empties a sync.Pool, so the collector is off, and there is
// one P, so a Put is the next Get's.
func TestDenseVariantTakesPooledSearchSpace(t *testing.T) {
	if raceBuild {
		t.Skip("sync.Pool drops a share of what it is given under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	p, err := New(Options{MaxEdge: 0.4e-6, Exec: sched.Local(1), Pipeline: op.Options{Backend: op.BackendDense}})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []float64{0.5e-6, 0.6e-6} {
		if _, err := p.Extract(crossingAt(h)); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := p.Extract(crossingAt(0.5e-6))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("N = %d: the variant allocated %d bytes in %d iterations", res.NumPanels, got, res.Iterations)
	if res.NumPanels != 524 || !res.Reused.NearField || res.Iterations == 0 {
		t.Fatalf("not a dense Krylov variant of the crossing pair: N = %d, %+v", res.NumPanels, res.Reused)
	}
	if got > 250_000 {
		t.Errorf("the variant allocated %d bytes, want at most 250 000", got)
	}
}
