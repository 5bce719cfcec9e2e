package batch

import (
	"context"
	"errors"
	"testing"

	"parbem/internal/geom"
	"parbem/internal/kernel"
	"parbem/internal/linalg"
	"parbem/internal/op"
	"parbem/internal/plan"
	"parbem/internal/sched"
	"parbem/internal/solver"
)

// relErr is the row-diagonal-normalized maximum relative difference of
// two capacitance matrices (the conventional extraction accuracy metric).
func relErr(got, ref *linalg.Dense) float64 {
	var maxRel float64
	for i := 0; i < ref.Rows; i++ {
		den := ref.At(i, i)
		if den < 0 {
			den = -den
		}
		for j := 0; j < ref.Cols; j++ {
			d := got.At(i, j) - ref.At(i, j)
			if d < 0 {
				d = -d
			}
			if rel := d / den; rel > maxRel {
				maxRel = rel
			}
		}
	}
	return maxRel
}

func TestEngineMatchesSerialExtract(t *testing.T) {
	st := geom.DefaultBus(3, 3).Build()
	ref, err := solver.Extract(st, solver.Options{Backend: solver.Serial})
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{Workers: 2})
	defer e.Close()
	for rep := 0; rep < 2; rep++ {
		res, err := e.Extract(st)
		if err != nil {
			t.Fatal(err)
		}
		if e := relErr(res.C, ref.C); e > 1e-10 {
			t.Fatalf("rep %d: engine deviates from serial by %g", rep, e)
		}
	}
	s := e.Stats()
	if s.StateHits == 0 {
		t.Error("second extraction did not hit the basis cache")
	}
	if s.PairHits == 0 {
		t.Error("second extraction did not hit the pair cache")
	}
}

// extractConcurrently extracts every structure through the engine from
// max(2, Workers) goroutines at once, as a service's concurrent requests
// would: their fills interleave on the engine's pool and share its basis
// LRU and class table. results[i] and errs[i] are sts[i]'s.
func extractConcurrently(e *Engine, sts []*geom.Structure) ([]*solver.Result, []error) {
	results := make([]*solver.Result, len(sts))
	errs := make([]error, len(sts))
	sched.Local(max(2, e.Workers())).Map(len(sts), func(i int) {
		results[i], errs[i] = e.Extract(sts[i])
	})
	return results, errs
}

func TestEngineExtractConcurrent(t *testing.T) {
	// A mixed corpus: repeated copies of two distinct structures,
	// extracted concurrently over the shared pool and caches.
	var corpus []*geom.Structure
	stA := geom.DefaultBus(3, 3).Build()
	stB := geom.DefaultCrossingPair().Build()
	for i := 0; i < 4; i++ {
		corpus = append(corpus, stA, stB)
	}
	e := New(Options{Workers: 4}) // four extractions at once
	defer e.Close()
	results, errs := extractConcurrently(e, corpus)
	refA, _ := solver.Extract(stA, solver.Options{Backend: solver.Serial})
	refB, _ := solver.Extract(stB, solver.Options{Backend: solver.Serial})
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("result %d: %v", i, errs[i])
		}
		ref := refA
		if i%2 == 1 {
			ref = refB
		}
		if e := relErr(res.C, ref.C); e > 1e-10 {
			t.Fatalf("result %d deviates by %g", i, e)
		}
	}
	// Exactly two distinct geometries were built.
	if _, misses := e.state.Stats(); misses != 2 { // two bases
		t.Errorf("state misses = %d, want 2", misses)
	}
}

// TestEngineExtractError: an invalid structure fails its own extraction
// and no other running beside it.
func TestEngineExtractError(t *testing.T) {
	bad := &geom.Structure{Name: "empty"} // no conductors: Validate fails
	good := geom.DefaultCrossingPair().Build()
	e := New(Options{Workers: 1})
	defer e.Close()
	results, errs := extractConcurrently(e, []*geom.Structure{good, bad})
	if errs[0] != nil || results[0] == nil {
		t.Errorf("valid structure did not extract: %v", errs[0])
	}
	if errs[1] == nil || results[1] != nil {
		t.Errorf("invalid structure returned %v, %v; want an error and no result", results[1], errs[1])
	}
}

func TestEngineUseAfterClose(t *testing.T) {
	st := geom.DefaultCrossingPair().Build()
	e := New(Options{Workers: 2})
	e.Close()
	res, err := e.Extract(st) // falls back to per-call workers
	if err != nil || res == nil {
		t.Fatalf("extract after close: %v", err)
	}
}

// corpus16 builds the benchmark corpus: 16 repeated-template bus
// structures (identical geometry, the service steady state the batch
// engine targets).
func corpus16() []*geom.Structure {
	out := make([]*geom.Structure, 16)
	for i := range out {
		out[i] = geom.DefaultBus(4, 4).Build()
	}
	return out
}

// TestEngineBatchWork is the engine's acceptance criterion as work done,
// not wall time: across the repeated-template corpus the engine
// integrates the corpus' symmetry classes once and builds its basis
// once, and a lone Extract already integrates each class of its own
// structure once, so what the engine adds is the reuse across
// structures. BenchmarkEngineBatch has the timing.
func TestEngineBatchWork(t *testing.T) {
	corpus := corpus16()

	lone, err := solver.Extract(corpus[0], solver.Options{Backend: solver.SharedMem})
	if err != nil {
		t.Fatal(err)
	}
	if f := lone.Fill; f.PairsNear != 10440 || f.ClassesIntegrated > 4553 {
		t.Errorf("lone Extract integrated %d classes for %d non-far pairs, want <= 4553 for 10440",
			f.ClassesIntegrated, f.PairsNear)
	}

	e := New(Options{})
	defer e.Close()
	if _, err := e.Extract(corpus[0]); err != nil {
		t.Fatal(err)
	}
	first := e.Stats()
	if _, errs := extractConcurrently(e, corpus[1:]); errors.Join(errs...) != nil {
		t.Fatal(errors.Join(errs...))
	}
	all := e.Stats()
	if int64(first.PairMisses) != lone.Fill.ClassesIntegrated || all.PairMisses != first.PairMisses {
		t.Errorf("pair misses: %d after structure 1, %d after structure 16, want %d both times",
			first.PairMisses, all.PairMisses, lone.Fill.ClassesIntegrated)
	}
	if all.StateHits-first.StateHits != 15 || all.StateMisses != first.StateMisses {
		t.Errorf("15 repeats: %d basis cache hits and %d misses, want 15 and 0",
			all.StateHits-first.StateHits, all.StateMisses-first.StateMisses)
	}
	if f := all.Fill; f.PairsNear != 16*lone.Fill.PairsNear || f.ClassesIntegrated != lone.Fill.ClassesIntegrated ||
		all.PairHits+all.PairMisses+uint64(f.PairMemo) != uint64(f.PairsNear) || all.PairEntries != int(f.ClassesIntegrated) {
		t.Errorf("engine stats do not add up: %+v", all)
	}
}

// BenchmarkEngineBatch compares a corpus of 16 repeated-template bus
// structures extracted by 16 sequential Extract calls against the batch
// engine's concurrent Extract calls (fresh engine per iteration, so every
// iteration pays the cache-cold first fill and then reaps the 15
// repeats).
func BenchmarkEngineBatch(b *testing.B) {
	corpus := corpus16()

	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, st := range corpus {
				if _, err := solver.Extract(st, solver.Options{Backend: solver.SharedMem}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	b.Run("engine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := New(Options{})
			if _, errs := extractConcurrently(e, corpus); errors.Join(errs...) != nil {
				b.Fatal(errors.Join(errs...))
			}
			e.Close()
		}
	})
}

// TestEnginePipelinePlanReuse routes geometry variants of one family
// through the engine's plan cache and checks both correctness (vs a
// fresh one-variant plan) and that the shared plan actually reused stage
// artifacts across the stream.
func TestEnginePipelinePlanReuse(t *testing.T) {
	eng := New(Options{Workers: 2})
	defer eng.Close()

	const edge = 0.5e-6
	popt := op.Options{Backend: op.BackendDense, Direct: true}
	for _, h := range []float64{0.4e-6, 0.55e-6, 0.7e-6} {
		sp := geom.DefaultCrossingPair()
		sp.H = h
		st := sp.Build()
		res, err := eng.ExtractPipelineCtx(context.Background(), st, edge, popt)
		if err != nil {
			t.Fatalf("h=%g: %v", h, err)
		}
		pl, err := plan.New(plan.Options{MaxEdge: edge, Pipeline: popt})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := pl.Extract(st)
		if err != nil {
			t.Fatal(err)
		}
		var maxRel float64
		for i := 0; i < ref.C.Rows; i++ {
			den := ref.C.At(i, i)
			if den < 0 {
				den = -den
			}
			for j := 0; j < ref.C.Cols; j++ {
				d := res.C.At(i, j) - ref.C.At(i, j)
				if d < 0 {
					d = -d
				}
				if d/den > maxRel {
					maxRel = d / den
				}
			}
		}
		if maxRel > 1e-10 {
			t.Errorf("h=%g: engine pipeline deviates by %g", h, maxRel)
		}
	}

	// All three variants share one family: the second and third must
	// have hit the cached plan and reused dense entries.
	s := eng.Stats()
	if s.StateHits < 2 {
		t.Errorf("plan cache hits = %d, want >= 2", s.StateHits)
	}
}

// TestEnginePanelPairsShared: every plan the engine caches reads the
// engine's one class table, so requests that miss the plan cache — here
// the same panels under eight family keys, four at a time — still share
// their integrals: the classes of the structure are integrated once among
// them, every other pair is a lookup, the counters say so, and each result
// is bitwise the one a plan with a table of its own returns.
func TestEnginePanelPairsShared(t *testing.T) {
	const edge, requests = 0.5e-6, 8
	popt := op.Options{Backend: op.BackendDense, Direct: true}
	st := geom.DefaultCrossingPair().Build()
	pl, err := plan.New(plan.Options{MaxEdge: edge, Pipeline: popt})
	if err != nil {
		t.Fatal(err)
	}
	want, fill, err := pl.ExtractFillCtx(context.Background(), st)
	if err != nil {
		t.Fatal(err)
	}

	eng := New(Options{Workers: 2})
	defer eng.Close()
	got := make([]*plan.Result, requests)
	errs := make([]error, requests)
	sched.Local(4).Map(requests, func(k int) {
		// The edge moves in its fourth digit: another family key, the
		// same panel counts.
		got[k], errs[k] = eng.ExtractPipelineCtx(context.Background(), st, edge*(1+1e-4*float64(k)), popt)
	})
	for k, res := range got {
		if errs[k] != nil {
			t.Fatal(errs[k])
		}
		for i, v := range res.C.Data {
			if v != want.C.Data[i] {
				t.Fatalf("request %d: C[%d] = %v through the shared table, %v through a private one", k, i, v, want.C.Data[i])
			}
		}
	}
	s := eng.Stats()
	if s.StateMisses < requests {
		t.Errorf("%d plan cache misses over %d family keys", s.StateMisses, requests)
	}
	if s.Fill.ClassesIntegrated != fill.ClassesIntegrated || s.PairEntries != int(fill.ClassesIntegrated) {
		t.Errorf("%d classes integrated, %d in the table; the structure has %d", s.Fill.ClassesIntegrated, s.PairEntries, fill.ClassesIntegrated)
	}
	if s.Fill.PairsNear != requests*fill.PairsNear || s.Fill.PairsFar != requests*fill.PairsFar {
		t.Errorf("fill %+v over %d requests of %+v each", s.Fill, requests, fill)
	}
	// Two requests that meet on a class both integrate it; the one that
	// stores it counts the miss. A near pair its block's memo served was
	// no lookup.
	if fill.PairMemo == 0 || s.Fill.PairMemo != requests*fill.PairMemo {
		t.Errorf("%d near pairs from block memos over %d requests of %d each", s.Fill.PairMemo, requests, fill.PairMemo)
	}
	if looked := int64(s.PairHits + s.PairMisses); looked != s.Fill.PairsNear-s.Fill.PairMemo || int64(s.PairMisses) != fill.ClassesIntegrated {
		t.Errorf("%d hits + %d misses for %d near pairs, %d from memos, in %d classes", s.PairHits, s.PairMisses, s.Fill.PairsNear, s.Fill.PairMemo, fill.ClassesIntegrated)
	}
}

// TestFamilyKeyCarriesFingerprint: a plan family key reads the kernel
// configuration through its fingerprint alone. A configuration that
// differs in QuadOrder, DisableApprox or arithmetic version is another
// family; a literal default one is FamilyKey's.
func TestFamilyKeyCarriesFingerprint(t *testing.T) {
	st := geom.DefaultCrossingPair().Build()
	popt := op.Options{Backend: op.BackendDense, Direct: true}
	key := func(cfg *kernel.Config, arith uint64) string {
		return planSignature(st, 0.5e-6, popt, cfg.Fingerprint(arith))
	}
	def := FamilyKey(st, 0.5e-6, popt)
	if k := key(&kernel.Config{QuadOrder: 4}, kernel.ArithVersion); k != def {
		t.Fatalf("a literal default configuration keys %q, FamilyKey %q", k, def)
	}
	for name, k := range map[string]string{
		"QuadOrder 5":       key(&kernel.Config{QuadOrder: 5}, kernel.ArithVersion),
		"DisableApprox":     key(&kernel.Config{QuadOrder: 4, DisableApprox: true}, kernel.ArithVersion),
		"arithmetic before": key(kernel.DefaultConfig(), kernel.ArithVersion-1),
	} {
		if k == def {
			t.Errorf("%s shares the default configuration's family key", name)
		}
	}
}
