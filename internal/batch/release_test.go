package batch

import (
	"sync/atomic"
	"testing"
	"time"

	"parbem/internal/geom"
	"parbem/internal/op"
	"parbem/internal/plan"
)

// crossingAt is the crossing pair with its upper wire at height h.
func crossingAt(h float64) *geom.Structure {
	sp := geom.DefaultCrossingPair()
	sp.H = h
	return sp.Build()
}

// cachedPlan returns the plan the engine caches under key (nil if none).
func cachedPlan(e *Engine, key string) *plan.Plan {
	e.state.mu.Lock()
	defer e.state.mu.Unlock()
	if el, ok := e.state.m[key]; ok {
		p, _ := el.Value.(*lruEntry).val.(*plan.Plan)
		return p
	}
	return nil
}

// TestEngineReleasesOneShotPlans interleaves one hot family's four H
// variants with 20 one-shot family keys (the edge moved in its fourth
// digit, as serve_mix's cold requests move it) and identical repeats of
// some of them. Every plan that still has one variant when a newer plan
// is created gives up its stages; the hot family, which has two from its
// second request on, keeps them and reuses near field and factors; a
// released plan still serves its repeats from its kept result and builds
// its next variant afresh, as exact as a fresh plan.
func TestEngineReleasesOneShotPlans(t *testing.T) {
	const edge = 0.5e-6
	popt := op.Options{Backend: op.BackendDense, Tol: 1e-12}
	hs := []float64{0.4e-6, 0.5e-6, 0.6e-6, 0.7e-6}
	cold := func(k int) float64 { return edge * (1 + 1e-4*float64(k+1)) }
	eng := New(Options{Workers: 2})
	defer eng.Close()

	// The model: variants installed per edge (each edge is a family key),
	// the newest plan's edge and the releases the rule predicts.
	variants := map[float64]int{}
	newest, wantReleased := -1.0, uint64(0)
	first := map[float64]*plan.Result{}
	extract := func(st *geom.Structure, e float64) *plan.Result {
		t.Helper()
		if _, seen := variants[e]; !seen {
			if newest >= 0 && variants[newest] == 1 {
				wantReleased++
			}
			newest = e
		}
		res, err := eng.ExtractPipeline(st, e, popt)
		if err != nil {
			t.Fatalf("edge %g: %v", e, err)
		}
		if _, ok := first[e]; !ok {
			first[e] = res
		}
		variants[e]++
		return res
	}

	var hot []*plan.Result
	hot = append(hot, extract(crossingAt(hs[0]), edge), extract(crossingAt(hs[1]), edge))
	for k := 0; k < 20; k++ {
		extract(crossingAt(hs[1]), cold(k))
		if k%5 == 4 {
			// An identical repeat of the one-shot key before: released, and
			// still a cache hit on the same result with no pair work.
			before := eng.Stats().Fill
			res, err := eng.ExtractPipeline(crossingAt(hs[1]), cold(k-1), popt)
			if err != nil {
				t.Fatal(err)
			}
			if res != first[cold(k-1)] {
				t.Errorf("repeat of one-shot key %d: a new result, not the cached one", k-1)
			}
			if after := eng.Stats().Fill; after.PairsNear != before.PairsNear || after.PairsFar != before.PairsFar {
				t.Errorf("repeat of one-shot key %d did pair work: %+v -> %+v", k-1, before, after)
			}
		}
		if k == 9 {
			hot = append(hot, extract(crossingAt(hs[2]), edge))
		}
	}
	hot = append(hot, extract(crossingAt(hs[3]), edge))

	for i, res := range hot[1:] {
		if !res.Reused.NearField || !res.Reused.Factorization {
			t.Errorf("hot family, build %d: reused %+v, want near field and factors", i+2, res.Reused)
		}
	}
	if got := eng.Stats().PlansReleased; got != wantReleased || wantReleased != 19 {
		t.Errorf("%d plans released, the interleaving predicts %d (19)", got, wantReleased)
	}
	holding := 0
	for e, n := range variants {
		p := cachedPlan(eng, FamilyKey(crossingAt(hs[1]), e, popt))
		if p == nil {
			t.Fatalf("no plan cached for edge %g", e)
		}
		if n == 1 && p.Holds() {
			holding++
		}
		if n > 1 && !p.Holds() {
			t.Errorf("edge %g: a plan with %d variants gave up its stages", e, n)
		}
	}
	if holding > 1 {
		t.Errorf("%d one-variant plans hold their stages, want at most the newest", holding)
	}

	// The first one-shot plan, released, takes a variant: nothing is kept
	// in place, the solve starts from the kept charges, and C is a fresh
	// plan's.
	e0 := cold(0)
	p0 := cachedPlan(eng, FamilyKey(crossingAt(hs[1]), e0, popt))
	if p0.Holds() {
		t.Fatal("the first one-shot plan still holds its stages")
	}
	s0 := p0.Stats()
	got := extract(crossingAt(hs[2]), e0)
	s1 := p0.Stats()
	if s1.DenseReused != s0.DenseReused {
		t.Errorf("a released plan's variant kept %d dense entries in place", s1.DenseReused-s0.DenseReused)
	}
	if s1.WarmStarts != s0.WarmStarts+1 {
		t.Errorf("a released plan's variant was not seeded with the kept charges (%d -> %d warm starts)", s0.WarmStarts, s1.WarmStarts)
	}
	fresh, err := plan.New(plan.Options{MaxEdge: e0, Pipeline: popt})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := fresh.Extract(crossingAt(hs[2]))
	if err != nil {
		t.Fatal(err)
	}
	if d := relErr(got.C, ref.C); d > 1e-10 {
		t.Errorf("a released plan's variant deviates from a fresh plan by %g", d)
	}
}

// gateStore is an artifact store that holds the first Get until proceed
// closes, after closing entered: a build that reaches its near-field
// stage first stays mid-build, holding its plan, for as long as the
// test wants. It stores nothing.
type gateStore struct {
	taken            atomic.Bool
	entered, proceed chan struct{}
}

func (g *gateStore) Get(string) ([]byte, bool) {
	if g.taken.CompareAndSwap(false, true) {
		close(g.entered)
		<-g.proceed
	}
	return nil, false
}

func (g *gateStore) Put(string, []byte) {}

// TestEngineReleaseNeverWaits: a request for a new family key releases
// the engine's newest plan while another request is mid-build on it. The
// releasing request completes without waiting on that build, and once the
// build ends, the plan holds no reusable stage.
func TestEngineReleaseNeverWaits(t *testing.T) {
	const edge = 0.5e-6
	popt := op.Options{Backend: op.BackendDense, Direct: true}
	st := crossingAt(0.5e-6)
	g := &gateStore{entered: make(chan struct{}), proceed: make(chan struct{})}
	eng := New(Options{Workers: 2, Artifacts: g})
	defer eng.Close()

	buildErr := make(chan error, 1)
	go func() {
		_, err := eng.ExtractPipeline(st, edge, popt)
		buildErr <- err
	}()
	<-g.entered
	releaseErr := make(chan error, 1)
	go func() {
		_, err := eng.ExtractPipeline(st, edge*(1+1e-4), popt)
		releaseErr <- err
	}()
	select {
	case err := <-releaseErr:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(time.Minute):
		t.Error("the releasing request waited on the other request's build")
	}
	close(g.proceed)
	if err := <-buildErr; err != nil {
		t.Fatal(err)
	}

	if p := cachedPlan(eng, FamilyKey(st, edge, popt)); p == nil || p.Holds() {
		t.Error("the released plan holds a reusable stage after its build ended")
	}
	if p := cachedPlan(eng, FamilyKey(st, edge*(1+1e-4), popt)); p == nil || !p.Holds() {
		t.Error("the newest plan gave up its stages")
	}
	if s := eng.Stats(); s.PlansReleased != 1 {
		t.Errorf("%d plans released, want 1", s.PlansReleased)
	}
}
