// Package batch implements the batch extraction engine: a long-lived
// service front end over the instantiable-basis solver that amortizes
// per-call setup across a stream of structures.
//
// A plain Extract call rebuilds everything from scratch every time — the
// template basis first — and spawns a fresh worker set for its parallel
// fill. The engine instead
//
//   - caches immutable expensive state behind a concurrency-safe LRU:
//     template basis sets keyed by an exact geometry signature and
//     pipeline plans keyed by family;
//   - shares one symmetry-class table (assembly.PairCache) across all
//     extractions, template and panel alike. A lone Extract already
//     integrates each class of its structure once; the shared table adds
//     reuse across structures, so a repeated-template corpus (the same
//     bus extracted many times, or translated, mirrored or turned copies
//     of one crossing layout) integrates nothing after the first, and
//     every pipeline plan the engine caches reads its exact panel-pair
//     integrals from the same table, whichever family key it sits
//     under; and
//   - schedules every fill's chunks onto one persistent worker pool
//     (sched.Pool) instead of spawning per-call goroutines.
//
// The paper's observation that nearly all extraction time is the
// embarrassingly parallel matrix fill is what makes this profitable: the
// fill is exactly the part that repeats across a batch.
//
// Solves flow through the unified operator pipeline (internal/op) via
// solver.ExtractSet, so every engine extraction shares the same direct
// path (one equilibrated, pivoted LDLᵀ, op.Options.Direct) and capacitance
// reduction as the interactive entry points.
//
// Piecewise-constant pipeline extractions (ExtractPipeline) ride the
// same LRU with staged extraction plans (internal/plan) keyed by
// structural family, so a stream of geometry variants — h-sweeps,
// width studies, near-identical cells — reuses near-field integrals,
// factorizations and warm starts across requests.
package batch

import (
	"context"
	"encoding/binary"
	"math"
	"sync"
	"time"

	"parbem/internal/assembly"
	"parbem/internal/basis"
	"parbem/internal/geom"
	"parbem/internal/kernel"
	"parbem/internal/op"
	"parbem/internal/plan"
	"parbem/internal/sched"
	"parbem/internal/solver"
)

// Options configures an Engine. The zero value is an engine with
// GOMAXPROCS workers. The template path has no other settings: a
// SharedMem fill on the engine's pool, default basis and kernel
// configuration, the state LRU and one shared class table of
// assembly.NewPairCache's default size, always on.
type Options struct {
	// Workers sizes the shared worker pool (0 = GOMAXPROCS). Concurrent
	// Extract calls' fills interleave on the pool.
	Workers int
	// PlanWorkers caps how many pool workers one ExtractPipeline
	// request's stage builds and operator applies occupy (0 = the whole
	// pool). A service running several pipeline extractions at once
	// sets this so concurrent requests divide the persistent pool
	// instead of oversubscribing it (sched.Budgeted).
	PlanWorkers int

	// CacheEntries bounds the state LRU (basis sets and pipeline plans;
	// 0 = 64).
	CacheEntries int

	// Artifacts optionally supplies a persistent stage-artifact store
	// shared by every pipeline plan the engine caches (see
	// plan.Options.Artifacts): near-field values survive process
	// restarts. Nil disables persistence.
	Artifacts plan.ArtifactStore
}

// Engine is a batch extraction service. It is safe for concurrent use;
// Close releases the worker pool.
type Engine struct {
	opt   Options
	pool  *sched.Pool
	state *LRU
	pairs *assembly.PairCache

	mu     sync.Mutex
	closed bool
	fill   assembly.FillStats
	// newest is the pipeline plan created last; released counts the plans
	// that took a Release when a newer one was created.
	newest   *plan.Plan
	released uint64
}

// Stats is a snapshot of the engine's cache effectiveness. The JSON
// tags keep the extraction service's /stats payload on the snake_case
// convention of the other machine-readable emitters.
type Stats struct {
	// StateHits/StateMisses count the basis/plan LRU.
	StateHits   uint64 `json:"state_hits"`
	StateMisses uint64 `json:"state_misses"`
	// PairHits/PairMisses count the lookups of the shared class table:
	// one per non-far pair that no block memo served — of templates
	// (Extract) or of panels whose entry no previous variant supplied
	// (ExtractPipeline) — a miss being an integration. The table's lookups
	// take no lock and count nothing; these are Fill's counts, which the
	// fills' workers keep: misses are its ClassesIntegrated, hits the rest
	// of its PairsNear less its PairMemo. (With the Distributed backend
	// they describe the ranks' private tables.)
	PairHits    uint64 `json:"pair_hits"`
	PairMisses  uint64 `json:"pair_misses"`
	PairEntries int    `json:"pair_entries"`
	// Fill sums solver.Result.Fill over the engine's template extractions
	// and the pair work of its pipeline plans' builds, except that its
	// TableBytes is the shared table's size now.
	Fill assembly.FillStats `json:"fill"`
	// PlansReleased counts the pipeline plans that gave up their reusable
	// stages (plan.Plan.Release) because a newer plan was created while
	// they had installed at most one variant (see ExtractPipelineCtx).
	PlansReleased uint64 `json:"plans_released"`
}

// New creates an engine and starts its worker pool.
func New(opt Options) *Engine {
	capEntries := opt.CacheEntries
	if capEntries == 0 {
		capEntries = 64
	}
	// The class table keeps assembly's default bound, 2^18 classes (13 MB
	// full). The serve_mix workload's four families visit 8 H values each,
	// and its cold requests, whose edge drifts into a family key never seen
	// again, add their classes to the same table: once the drift crosses a
	// panel-count threshold the table rolls generations whose classes the
	// next such request integrates again (ROADMAP item 16). Measured there
	// (2 vCPU, one client) with one-shot plans released: op_s 2.2 ms, peak
	// RSS 59 MB, 107 MB while every cached plan kept its matrix, and 15 MB
	// of live heap after a collection, the table included. At 2^16 classes
	// were dropped before their H value came round again: 5.2 ms against
	// 3.4-3.8 ms when the two bounds were last compared. A constant, not a
	// setting: no caller has asked for another.
	return &Engine{opt: opt, pool: sched.NewPool(opt.Workers),
		state: NewLRU(capEntries), pairs: assembly.NewPairCache(0)}
}

// Close shuts down the worker pool. Extractions in flight complete;
// later calls fall back to per-call workers.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.mu.Unlock()
	e.pool.Close()
}

// Workers returns the size of the engine's persistent worker pool.
func (e *Engine) Workers() int { return e.pool.Workers() }

// PlanWorkers returns the per-request worker budget pipeline plans run
// under (0 = the whole pool).
func (e *Engine) PlanWorkers() int { return e.opt.PlanWorkers }

// PlanExec returns the executor one request's parallel work runs on —
// the stage builds and operator applies of a pipeline plan, the points
// of a template sweep: the engine's persistent pool, budgeted to
// PlanWorkers per Map call when configured. After Close the pool runs
// Map calls inline, so cached plans keep working serially.
func (e *Engine) PlanExec() sched.Executor {
	return sched.Budgeted(e.pool, e.opt.PlanWorkers)
}

// Stats returns the cache counters.
func (e *Engine) Stats() Stats {
	var s Stats
	s.StateHits, s.StateMisses = e.state.Stats()
	s.PairEntries = e.pairs.Len()
	e.mu.Lock()
	s.Fill = e.fill
	s.PlansReleased = e.released
	e.mu.Unlock()
	s.PairMisses = uint64(s.Fill.ClassesIntegrated)
	s.PairHits = uint64(s.Fill.PairsNear-s.Fill.PairMemo) - s.PairMisses
	s.Fill.TableBytes = e.pairs.Bytes()
	return s
}

// Extract runs one extraction through the engine's caches and pool: a
// SharedMem fill on the pool (per-call workers after Close). It is safe
// for concurrent use; concurrent calls share the basis LRU, the class
// table and the pool. The returned Result shares the cached basis set
// (read-only); its Timing.BasisGen is zero on a cache hit — that is the
// amortization the engine exists for.
func (e *Engine) Extract(st *geom.Structure) (*solver.Result, error) {
	if err := st.Validate(); err != nil {
		return nil, err
	}

	// tBasis is written only when this call computes the entry; on a hit
	// (or a join of another caller's computation) it stays 0, which is
	// exactly what the timing should report.
	var tBasis time.Duration
	v, _, err := e.state.GetOrCompute("basis:"+geoSignature(st), func() (any, error) {
		t0 := time.Now()
		s, err := solver.BuildBasis(st, basis.BuilderOptions{})
		tBasis = time.Since(t0)
		return s, err
	})
	if err != nil {
		return nil, err
	}

	opt := solver.Options{Backend: solver.SharedMem, Workers: e.opt.Workers}
	var pool *sched.Pool
	e.mu.Lock()
	if !e.closed {
		pool = e.pool
		opt.Workers = e.pool.Workers()
	}
	e.mu.Unlock()
	res, err := solver.ExtractSet(v.(*basis.Set), opt, e.pairs, pool)
	if err != nil {
		return nil, err
	}
	res.Timing.BasisGen = tBasis
	res.Timing.Total += tBasis
	e.mu.Lock()
	e.fill.Add(res.Fill)
	e.mu.Unlock()
	return res, nil
}

// ExtractPipeline runs a piecewise-constant pipeline extraction through
// the engine's plan cache: where parbem.ExtractPipeline extracts on a
// throwaway plan, here structures route to a cached one keyed by
// their structural family — conductor/box layout plus the solve options
// — so geometry variants of one family arriving in a stream reuse each
// other's stage artifacts: unchanged near-field integrals are not
// integrated again (copied on dense, read from the class table on fmm
// and pfft), block factorizations are adopted and Krylov solves
// warm-started, exactly as in an explicit parbem.Plan sweep. Unrelated
// geometries that happen to share a family key simply rebuild (the plan's
// diff keeps results exact); per-family extractions serialize on their
// plan.
//
// Caveat: an opt.FMM/PFFT worker-pool override (Pool) is not part of the
// family key; callers varying it per request should use explicit
// parbem.NewPlan instances instead.
func (e *Engine) ExtractPipeline(st *geom.Structure, maxEdge float64, opt op.Options) (*plan.Result, error) {
	return e.ExtractPipelineCtx(context.Background(), st, maxEdge, opt)
}

// ExtractPipelineCtx is ExtractPipeline bounded by a context: the
// plan's stage boundaries and the GMRES iteration loop observe ctx, so
// a request deadline (or a client cancellation) stops the extraction at
// the next checkpoint with an *op.Interrupted error, its Stage the stage
// that was stopped, instead of running to completion. An interrupted
// extraction never corrupts the cached family plan — the previous
// variant's artifacts stay installed and the next request proceeds
// normally. A nil ctx means context.Background().
//
// A cached plan always keeps its last geometry and result, so an
// identical repeat is served without work for as long as the plan stays
// in the state LRU. Its matrix, operator and block factors it keeps only
// while they may serve a variant: when a request creates a plan for a new
// family key, the engine's previous newest plan gives them up
// (plan.Plan.Release, counted in Stats.PlansReleased) if it has installed
// only one variant, since a family key seen once — serve_mix's cold
// requests — rarely comes back with another geometry. A plan with two or
// more variants keeps them until the LRU evicts it, and a released family
// that does come back builds its next variant from scratch once, seeded
// with the kept charges.
func (e *Engine) ExtractPipelineCtx(ctx context.Context, st *geom.Structure, maxEdge float64, opt op.Options) (*plan.Result, error) {
	if err := st.Validate(); err != nil {
		return nil, err
	}
	v, _, err := e.state.GetOrCompute(FamilyKey(st, maxEdge, opt), func() (any, error) {
		p, err := plan.New(plan.Options{MaxEdge: maxEdge, Pipeline: opt,
			Exec: e.PlanExec(), Artifacts: e.opt.Artifacts, Pairs: e.pairs})
		if err == nil {
			e.mu.Lock()
			if e.newest != nil && e.newest.Release() {
				e.released++
			}
			e.newest = p
			e.mu.Unlock()
		}
		return p, err
	})
	if err != nil {
		return nil, err
	}
	res, fill, err := v.(*plan.Plan).ExtractFillCtx(ctx, st)
	e.mu.Lock()
	e.fill.Add(fill)
	e.mu.Unlock()
	return res, err
}

// FamilyKey returns the geometry-family key ExtractPipeline caches
// plans under: structural shape (conductor/box counts, not coordinates —
// variants of one family must share the key) plus every scalar solve
// option that changes results. The multi-replica coordinator
// (internal/serve.NewRouter) consistent-hashes this key so all variants
// of a family land on the replica whose warm caches own it.
func FamilyKey(st *geom.Structure, maxEdge float64, opt op.Options) string {
	return planSignature(st, maxEdge, opt, kernel.DefaultConfig().Fingerprint(kernel.ArithVersion))
}

// planSignature keys a plan by structural family: conductor/box counts
// (not coordinates — variants must share the key) plus every scalar
// solve option that changes results, and fp, the fingerprint of the
// kernel configuration the plan integrates with (plan.New's default; a
// parameter so that a test can vary it).
func planSignature(st *geom.Structure, maxEdge float64, opt op.Options, fp uint64) string {
	buf := []byte("plan:")
	f := func(x float64) {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
	}
	u := func(x uint64) {
		buf = binary.LittleEndian.AppendUint64(buf, x)
	}
	f(maxEdge)
	u(uint64(opt.Backend))
	u(uint64(opt.Precision))
	f(opt.Tol)
	if opt.Direct {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	u(fp)
	// Presence tags keep the encoding unambiguous: without them, a
	// missing sub-struct followed by other fields could serialize like
	// a present zero-valued one (geoSignature's collision-free rule).
	if fo := opt.FMM; fo != nil {
		buf = append(buf, 'F')
		f(fo.Theta)
		f(fo.NearFactor)
	} else {
		buf = append(buf, 0)
	}
	if po := opt.PFFT; po != nil {
		buf = append(buf, 'P')
		u(uint64(po.MaxNodes))
		f(po.NearRadius)
	} else {
		buf = append(buf, 0)
	}
	u(uint64(len(st.Conductors)))
	for _, c := range st.Conductors {
		u(uint64(len(c.Boxes)))
	}
	return string(buf)
}

// geoSignature serializes the exact geometry into a collision-free cache
// key: two structures share a key iff their conductor boxes are bitwise
// identical in the same order (names are irrelevant to the basis). Keys
// are a few dozen bytes per box, which the bounded LRU holds comfortably.
func geoSignature(st *geom.Structure) string {
	var buf []byte
	f := func(x float64) {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(st.Conductors)))
	for _, c := range st.Conductors {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(c.Boxes)))
		for _, b := range c.Boxes {
			f(b.Min.X)
			f(b.Min.Y)
			f(b.Min.Z)
			f(b.Max.X)
			f(b.Max.Y)
			f(b.Max.Z)
		}
	}
	return string(buf)
}
