// Package plan implements staged extraction plans: an incremental
// build/solve chain that re-extracts geometry variants (h-sweeps,
// width/spacing studies, corpus batches) without paying the full setup
// cost per variant.
//
// # Stage DAG
//
// A piecewise-constant extraction factors into a chain of stage
// artifacts, each content-addressed by what it actually depends on:
//
//	Discretization  panel set + provenance        <- geometry, maxEdge
//	Topology        octree + interaction lists,   <- panel centers,
//	                pFFT grid dims + stencils        operator options
//	NearField       exact-Galerkin near entries   <- pairwise relative
//	                (fmm CSR, pfft precorrection,    panel geometry,
//	                dense matrix)                    kernel cfg, eps
//	Factorization   block-Jacobi LDLᵀ factors     <- near-field blocks
//	Solve           Krylov/direct solve + C       <- all above, tol
//
// # Invalidation keys and reuse rules
//
// A geometry delta invalidates only the stages that truly changed:
//
//   - Identical geometry (every box bitwise equal, geom.Diff.Identical):
//     every stage is reused; Extract returns the cached result without
//     touching any artifact.
//   - Rigid box translations (geom.Diff classifies every box as
//     Same/Translated and panel counts align): panels map 1:1 across
//     variants and are grouped into rigid-motion classes, one per
//     distinct exact translation. Two panels of the same class have
//     bit-identical relative geometry: on the dense backend their entry
//     is kept where it is, in the previous variant's matrix, which the
//     variant rewrites in place, and near blocks whose panels share one
//     class keep their LDLᵀ factors on every backend (their entries
//     are not even copied out). The Discretization and Topology stages
//     are rebuilt — both are O(N log N) with no kernel integration, noise
//     next to the integral-bearing stages they feed — and so are the fmm
//     and pfft near fields, exactly as a fresh build's (a pfft variant
//     adopts the previous kernel transform when the grid matches). The previous
//     variant's charge solutions seed the search space the Krylov solve
//     of every conductor starts in (op.Pipeline.ExtractWarmCtx). On the
//     dense backend the near blocks are clusters of one conductor's
//     panels, so a rigid motion keeps every block's factor
//     (TestKrylovLadders).
//   - Anything else (resized boxes, changed counts): every entry is
//     built afresh; incomparable geometries rebuild from scratch.
//
// Reuse never changes what is computed, only where the value comes
// from. Every exact entry that is not kept is the value of its panel
// pair's symmetry class (assembly.InternPanels), read from the plan's
// class table (Options.Pairs) and integrated only if the table has not
// met the class — on the dense backend, read once per distinct centre
// displacement of a block of panel groups and handed to the block's other
// pairs of that displacement, which have the same class (assembly's
// "Blocks"). A pair that moved rigidly keeps its class, so a variant
// integrates only the classes it has not met and its near field is
// bitwise a fresh plan's (TestVariantNearFieldBitwise): a kept dense
// entry is the value the previous build read.
//
// A dense variant takes the previous variant's matrix, a packed lower
// triangle, as its own and rewrites only the entries whose pair did not
// move as one; a block of panel groups that moved as one is skipped whole,
// so a variant allocates and zeroes no matrix. The fmm and pfft
// variants build their near fields afresh: a copy from the previous
// operator saved a lookup, never an integration, and was deleted.
// Preconditioner factor reuse cannot affect results at all — only
// iteration counts.
//
// # Interrupts
//
// The stage boundaries of the build chain and the solve's GMRES
// iterations observe the caller's context, so a deadline or cancellation
// stops an extraction with the pipeline's own stop report, an
// *op.Interrupted: a boundary sets its Stage to the stage about to run,
// and a stop inside the solve reaches the caller as the pipeline returned
// it, Stage "solve", with the iterations, residual and partial
// capacitance it reached. A build stopped at a checkpoint installs
// nothing: the previous variant stays current, with its geometry, result,
// charges and factors, so its geometry is still a cache hit. The one
// artifact it does not keep is its dense matrix, which the interrupted
// build took to rewrite; the next dense variant therefore assembles from
// scratch (Stats.DenseReused does not grow), and gets every result bit a
// fresh plan would.
//
// # Release
//
// A plan keeps two kinds of state. Its geometry snapshot and Result are
// what an identical repeat returns and what the next variant is diffed
// against and seeded with; they stay as long as the plan does. Its
// reusable stages — the dense matrix, the fmm or pfft operator with its
// near field, the block factors — serve only the next variant, and an
// owner of many plans that expects no next variant (the batch engine,
// for a family that has installed one variant and is no longer its
// newest) gives them up with Release. The plan then behaves as after an
// interrupted build: an identical repeat is still a cache hit with the
// same *Result, and the next variant builds every stage as a fresh plan
// would, its Krylov solve seeded with the kept charges.
// Release never waits: a plan busy with a build gives its stages up when
// that build ends, if it has still installed at most one variant then. A
// plan that has installed two or more variants refuses the request and
// keeps its stages.
//
// A Plan is safe for concurrent use but serializes extractions; for
// concurrent sweeps, spread the variants over plans (extract.SweepH
// keeps one plan per point being solved at once).
//
// There is no other driver of a panel extraction: a one-shot one
// (parbem.ExtractPipeline) is a plan with one variant.
package plan

import (
	"context"
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"parbem/internal/assembly"
	"parbem/internal/fmm"
	"parbem/internal/geom"
	"parbem/internal/kernel"
	"parbem/internal/linalg"
	"parbem/internal/op"
	"parbem/internal/pfft"
	"parbem/internal/sched"
)

// Options configures a Plan. MaxEdge is required; the zero Pipeline
// value selects the backend with the cost model, the preconditioner
// automatically and a 1e-4 tolerance, exactly like op.Options.
type Options struct {
	// MaxEdge is the panelization edge length in meters (required).
	MaxEdge float64
	// Pipeline configures the solve: backend, preconditioner,
	// tolerance, per-backend operator tuning.
	Pipeline op.Options
	// Exec optionally supplies the executor for parallel assembly and
	// reductions (nil = throwaway sched.Local per stage build).
	Exec sched.Executor
	// Artifacts optionally supplies a persistent stage-artifact store
	// (see artifact.go): a family's near-field values are read through it
	// before building and written through after, so a restarted process
	// skips the integration cost for families it built before. Nil
	// disables persistence.
	Artifacts ArtifactStore
	// Pairs optionally supplies the symmetry-class table every exact
	// panel-pair integral of the plan's builds is read from and added to
	// (assembly.InternPanels): a table shared between plans integrates a
	// class — a pair up to translation, reflection and axis permutation —
	// once for all of them. Nil gives the plan a table of its own, which
	// still serves every variant it builds.
	Pairs *assembly.PairCache
}

// Stats counts stage builds and reuse over a plan's lifetime. The JSON
// tags keep machine-readable emitters (capx -json) on the snake_case
// convention of the rest of their payloads.
type Stats struct {
	Extracts  int `json:"extracts"`   // Extract calls
	CacheHits int `json:"cache_hits"` // identical-geometry calls served without any build

	DiscBuilds int `json:"disc_builds"` // Discretization stage builds
	TopoBuilds int `json:"topo_builds"` // Topology stage builds
	NearBuilds int `json:"near_builds"` // NearField stage builds
	FactBuilds int `json:"fact_builds"` // Factorization stage builds (pipeline constructions)

	// NearReused counts the near-field entries the builds produced without
	// integrating, on every backend: class-table hits, block-memo loads,
	// dense entries kept in the previous variant's matrix and entries
	// adopted from the artifact store (whose traffic the store counts).
	// NearComputed counts the classes they integrated instead; so does
	// ClassesIntegrated, which an owner of many plans sums with the rest of
	// a call's pair work.
	NearReused        int64 `json:"near_reused"`
	NearComputed      int64 `json:"near_computed"`
	ClassesIntegrated int64 `json:"classes_integrated"`
	DenseReused       int64 `json:"dense_reused"` // dense packed-triangle entries kept in place
	FactReused        int   `json:"fact_reused"`  // block factors adopted across variants
	WarmStarts        int   `json:"warm_starts"`  // solves offered the previous variant's charges as seeds
}

// StageReuse flags which stage artifacts of a Result came (at least
// partially) from the previous variant or the artifact store: NearField
// for dense entries kept in place or a near field adopted whole from the
// store, Topology for a shared pfft kernel transform, Factorization for
// block factors adopted from the previous variant (the store holds none).
type StageReuse struct {
	Topology      bool
	NearField     bool
	Factorization bool
}

// StageTimings is the per-stage wall time of one Extract.
type StageTimings struct {
	Discretize time.Duration
	Topology   time.Duration
	NearField  time.Duration
	Factorize  time.Duration
	Solve      time.Duration
}

// Result is a completed plan extraction: the *op.Result its solve
// returned — C, the charges Rho, the panel count, the Krylov iterations
// and applications, the resolved backend and arithmetic, a direct solve's
// inertia — and what the plan adds to it. It is shared with the plan's
// internal state (cache hits return the same object; Rho seeds the next
// variant's solve) and must be treated as read-only.
type Result struct {
	*op.Result
	// Panels is the discretization the charges live on (shared).
	Panels        []geom.Panel
	NumConductors int
	Reused        StageReuse
	Stages        StageTimings
	Total         time.Duration
}

// Plan caches stage artifacts across geometry variants. Create with
// New; Extract may be called concurrently (calls serialize).
type Plan struct {
	mu    sync.Mutex
	opt   Options
	cfg   *kernel.Config
	cur   *variant
	stats Stats
	// variants counts the variants installed; release is a Release not
	// yet carried out. Both are read without mu, so that Release never
	// waits on a build.
	variants atomic.Int32
	release  atomic.Bool
}

// variant is the cached state of the most recent geometry.
type variant struct {
	st     *geom.Structure // geometry snapshot (deep copy)
	prov   []geom.BoxRef
	be     op.Backend
	fmmOp  *fmm.Operator
	pfftOp *pfft.Operator
	dense  *linalg.Sym
	// factors maps a near block's exact unknown sequence to its
	// factor (Factorization stage artifact).
	factors map[string]*linalg.LDLT
	res     *Result
}

// New creates a plan. MaxEdge must be positive.
func New(opt Options) (*Plan, error) {
	if opt.MaxEdge <= 0 {
		return nil, errors.New("plan: MaxEdge must be positive")
	}
	if opt.Pairs == nil {
		opt.Pairs = assembly.NewPairCache(0)
	}
	return &Plan{opt: opt, cfg: kernel.DefaultConfig()}, nil
}

// Stats returns a snapshot of the plan's build/reuse counters.
func (p *Plan) Stats() Stats {
	p.mu.Lock()
	defer p.unlock()
	return p.stats
}

// Extract runs one extraction, reusing every stage artifact of the
// previous variant that the geometry delta leaves valid.
func (p *Plan) Extract(st *geom.Structure) (*Result, error) {
	return p.ExtractCtx(context.Background(), st)
}

// ExtractCtx is Extract bounded by a context: the stage boundaries of
// the build chain and the solve's GMRES iterations observe ctx, so a
// deadline or cancellation stops the extraction early with an
// *op.Interrupted error (see "Interrupts") instead of completing work
// nobody will read. A nil ctx means context.Background().
// Identical-geometry cache hits are served regardless (they cost
// microseconds).
func (p *Plan) ExtractCtx(ctx context.Context, st *geom.Structure) (*Result, error) {
	res, _, err := p.ExtractFillCtx(ctx, st)
	return res, err
}

// ExtractFillCtx is ExtractCtx, also returning the pair work this call's
// build did — zero for a cache hit, whose Result is the one an earlier
// call was handed — so that an owner of many plans (the batch engine) can
// total it.
func (p *Plan) ExtractFillCtx(ctx context.Context, st *geom.Structure) (*Result, assembly.FillStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	p.mu.Lock()
	defer p.unlock()
	p.stats.Extracts++
	if err := st.Validate(); err != nil {
		return nil, assembly.FillStats{}, err
	}
	if cur := p.cur; cur != nil && sameGeometry(cur.st, st) {
		p.stats.CacheHits++
		return cur.res, assembly.FillStats{}, nil
	}
	var fill assembly.FillStats
	res, err := p.build(ctx, st, &fill)
	p.stats.ClassesIntegrated += fill.ClassesIntegrated
	return res, fill, err
}

// Release asks the plan to give up its reusable stages (see "Release").
// It reports whether the plan took the request: false once it has
// installed two or more variants. It never waits: when another call holds
// the plan, that call drops the stages as it lets go (see unlock) — a
// build once it has ended, if it left the plan at most one variant.
func (p *Plan) Release() bool {
	if p.variants.Load() > 1 {
		return false
	}
	p.release.Store(true)
	if p.mu.TryLock() {
		p.unlock()
	}
	return true
}

// Holds reports whether the plan holds reusable stages of its current
// variant: a dense matrix, an fmm or pfft operator, or block factors. It
// waits for a build in progress.
func (p *Plan) Holds() bool {
	p.mu.Lock()
	defer p.unlock()
	c := p.cur
	return c != nil && (c.dense != nil || c.fmmOp != nil || c.pfftOp != nil || c.factors != nil)
}

// unlock releases p.mu, first carrying out a Release taken while it was
// held. A Release that arrives between that check and the unlock found
// the lock held and left the drop to this holder, which therefore looks
// again afterwards.
func (p *Plan) unlock() {
	for {
		if p.release.Load() && p.cur != nil {
			if p.variants.Load() <= 1 {
				c := p.cur
				c.dense, c.fmmOp, c.pfftOp, c.factors = nil, nil, nil, nil
			}
			p.release.Store(false)
		}
		p.mu.Unlock()
		// A variant to act on (the request of a plan with none waits for
		// its first build) and no other holder to leave it to.
		if !p.release.Load() || p.variants.Load() == 0 || !p.mu.TryLock() {
			return
		}
	}
}

// build runs the staged chain for a new geometry variant, adding the pair
// work of its near-field stage to fill.
func (p *Plan) build(ctx context.Context, st *geom.Structure, fill *assembly.FillStats) (*Result, error) {
	t0 := time.Now()
	cur := p.cur
	// check is the stage-boundary context checkpoint: the expensive
	// stages (near-field integration, factorization) never start once the
	// deadline has passed, and the solve checks ctx on entry and at every
	// operator application itself. An interrupted build leaves p.cur on
	// the previous variant — no partial artifacts are ever installed, and
	// its dense matrix, once taken, is gone (see "Interrupts").
	check := func(stage string) error {
		if err := ctx.Err(); err != nil {
			return &op.Interrupted{Stage: stage, Err: err}
		}
		return nil
	}
	if err := check("discretize"); err != nil {
		return nil, err
	}

	// Discretization.
	tD := time.Now()
	snap := st.Clone()
	panels, prov := snap.PanelizeProv(p.opt.MaxEdge)
	if len(panels) == 0 {
		return nil, errors.New("plan: no panels generated")
	}
	spec := op.Spec{
		Panels:        panels,
		NumConductors: snap.NumConductors(),
		Cfg:           p.cfg,
		Exec:          p.opt.Exec,
		Pairs:         p.opt.Pairs,
	}
	p.stats.DiscBuilds++
	dDisc := time.Since(tD)

	// Rigid-motion classes vs the previous variant (nil = no reuse).
	var class []int32
	if cur != nil {
		class = motionClasses(cur, snap, prov)
	}
	be := op.ResolveBackend(spec, p.opt.Pipeline)

	nv := &variant{st: snap, prov: prov, be: be}
	res := &Result{Panels: panels, NumConductors: spec.NumConductors}
	res.Stages.Discretize = dDisc
	if err := check("topology"); err != nil {
		return nil, err
	}

	// Topology + NearField per backend. akey is the persistent-store
	// family hash ("" = persistence off); the near-field payload is
	// adopted on a store hit and written through whenever the build
	// integrated anything.
	var pb op.Prebuilt
	switch be {
	case op.BackendDense:
		akey := p.artifactKey(snap, be, nil, nil)
		tN := time.Now()
		nv.dense = decodeDenseArtifact(p.storedNear(akey), len(panels))
		adopted := nv.dense != nil
		if adopted {
			n := int64(len(panels))
			p.countNear(assembly.FillStats{}, n*(n+1)/2)
			res.Reused.NearField = true
		} else {
			// The previous variant's matrix (nil unless it was dense) is the
			// storage this one is written into. It leaves cur first, so an
			// interrupted build leaves no half-rewritten matrix installed.
			var prev *linalg.Sym
			if cur != nil {
				prev, cur.dense = cur.dense, nil
			}
			var nr int64
			var f assembly.FillStats
			nv.dense, nr, f = spec.AssembleDenseReuse(prev, class)
			fill.Add(f)
			p.countNear(f, nr)
			p.stats.DenseReused += nr
			res.Reused.NearField = nr > 0
		}
		if akey != "" && !adopted {
			p.opt.Artifacts.Put(akey+nearSuffix, encodeDenseArtifact(nv.dense))
		}
		p.stats.NearBuilds++
		res.Stages.NearField = time.Since(tN)
		pb.Dense = nv.dense
	case op.BackendFMM:
		fo := op.FMMOptions(spec, p.opt.Pipeline)
		akey := p.artifactKey(snap, be, &fo, nil)
		tT := time.Now()
		topo := fmm.NewTopology(spec.Panels, fo)
		p.stats.TopoBuilds++
		res.Stages.Topology = time.Since(tT)
		if err := check("near-field"); err != nil {
			return nil, err
		}
		var r *fmm.Reuse
		if vals := decodeFMMNearArtifact(p.storedNear(akey)); vals != nil {
			r = &fmm.Reuse{Vals: vals}
		}
		tN := time.Now()
		nv.fmmOp = fmm.NewOperatorWith(topo, spec.Panels, fo, r)
		f := nv.fmmOp.NearFill()
		fill.Add(f)
		// A fill reads at least every panel's pair with itself, so a build
		// that read none adopted the stored values.
		var adopted int64
		if r != nil && f.PairsNear+f.PairsFar == 0 {
			adopted = int64(len(nv.fmmOp.NearVals()))
		}
		p.countNear(f, adopted)
		res.Reused.NearField = adopted > 0
		p.stats.NearBuilds++
		res.Stages.NearField = time.Since(tN)
		// A build that integrated anything did not adopt the whole stored
		// payload — there was none, or the decoder or the operator refused
		// it — so it replaces it.
		if akey != "" && f.PairsNear+f.PairsFar > 0 {
			p.opt.Artifacts.Put(akey+nearSuffix, encodeFMMNearArtifact(nv.fmmOp.NearVals()))
		}
		pb.Operator = nv.fmmOp
	case op.BackendPFFT:
		po := op.PFFTOptions(spec, p.opt.Pipeline)
		akey := p.artifactKey(snap, be, nil, &po)
		r := &pfft.Reuse{Artifact: decodePFFTNearArtifact(p.storedNear(akey), len(panels))}
		// The previous operator, when it was pfft, offers its kernel
		// transform.
		if cur != nil {
			r.Prev = cur.pfftOp
		}
		nv.pfftOp = pfft.NewOperatorReuse(spec.Panels, po, r)
		f := nv.pfftOp.NearFill()
		fill.Add(f)
		// Every entry of a row that was not adopted is one PairInto call.
		adopted := int64(nv.pfftOp.NearEntries()) - f.PairsFar - f.PairsNear
		p.countNear(f, adopted)
		// KernelShared adopts the previous variant's half-spectrum
		// kernel FFT when the padded grid dims and spacing match; the
		// r2c layout halves what a shared (or rebuilt) spectrum costs.
		res.Reused.Topology = nv.pfftOp.KernelShared()
		res.Reused.NearField = adopted > 0
		p.stats.TopoBuilds++
		p.stats.NearBuilds++
		res.Stages.Topology, res.Stages.NearField = nv.pfftOp.PhaseTimes()
		// As on fmm: a row refused is a row integrated, and the payload is
		// replaced.
		if akey != "" && f.PairsNear+f.PairsFar > 0 {
			p.opt.Artifacts.Put(akey+nearSuffix, encodePFFTNearArtifact(nv.pfftOp.NearArtifact()))
		}
		pb.Operator = nv.pfftOp
	default:
		return nil, errors.New("plan: unknown backend")
	}

	// Factorization: adopt unchanged blocks' factors from the previous
	// variant when rigid-motion classes align; factorize the rest.
	if err := check("factorize"); err != nil {
		return nil, err
	}
	pb.Factors = factorLookup(cur, class)
	tF := time.Now()
	popt := p.opt.Pipeline
	popt.Backend = be
	pipe, err := op.NewPrebuilt(spec, popt, pb)
	if err != nil {
		return nil, err
	}
	p.stats.FactBuilds++
	res.Stages.Factorize = time.Since(tF)
	if bj := pipe.Preconditioner(); bj != nil { // nil on the direct path
		p.stats.FactReused += bj.ReusedFactors()
		res.Reused.Factorization = bj.ReusedFactors() > 0
		nv.factors = factorMap(bj)
	}

	// Solve (in a space seeded by the previous variant's charges when
	// aligned).
	tS := time.Now()
	var x0 *linalg.Dense
	if !popt.Direct && cur != nil &&
		cur.res.Rho.Rows == len(panels) && cur.res.Rho.Cols == spec.NumConductors {
		x0 = cur.res.Rho
		p.stats.WarmStarts++
	}
	if res.Result, err = pipe.ExtractWarmCtx(ctx, x0); err != nil {
		return nil, err
	}
	res.Stages.Solve = time.Since(tS)
	res.Total = time.Since(t0)

	nv.res = res
	p.cur = nv
	p.variants.Add(1)
	return res, nil
}

// countNear books a near-field build's work: the classes it integrated,
// and the near entries it produced without integrating — table hits and
// block-memo loads (its lookups less the integrations) plus whole, the
// entries it kept from the previous variant or adopted from the store.
func (p *Plan) countNear(f assembly.FillStats, whole int64) {
	p.stats.NearComputed += f.ClassesIntegrated
	p.stats.NearReused += f.PairsNear - f.ClassesIntegrated + whole
}

// sameGeometry reports bitwise-identical conductor boxes (names are
// irrelevant to extraction ordering and results). It allocates nothing:
// the identical-geometry path is the cache hit the AllocsPerRun guard
// pins.
func sameGeometry(a, b *geom.Structure) bool {
	if len(a.Conductors) != len(b.Conductors) {
		return false
	}
	for ci := range a.Conductors {
		ab, bb := a.Conductors[ci].Boxes, b.Conductors[ci].Boxes
		if len(ab) != len(bb) {
			return false
		}
		for k := range ab {
			if ab[k] != bb[k] {
				return false
			}
		}
	}
	return true
}

// motionClasses groups the new variant's panels by exact rigid
// translation since the previous variant: panels of a Same box share
// the zero-delta class, panels of a box translated by delta share
// delta's class, panels of reshaped boxes get -1. Returns nil when the
// structures are incomparable or panels do not align 1:1 by index.
func motionClasses(cur *variant, st *geom.Structure, prov []geom.BoxRef) []int32 {
	d := geom.Diff(cur.st, st)
	if !d.Comparable {
		return nil
	}
	if len(prov) != len(cur.prov) {
		return nil
	}
	// Panel indices align iff every box contributed the same panel
	// count; equal total plus equal per-index provenance pins that.
	for i := range prov {
		if prov[i] != cur.prov[i] {
			return nil
		}
	}
	classOf := map[geom.Vec3]int32{}
	// Per-box class, resolved once per box then fanned out to panels.
	boxClass := make([][]int32, len(d.Boxes))
	for ci := range d.Boxes {
		boxClass[ci] = make([]int32, len(d.Boxes[ci]))
		for k, bd := range d.Boxes[ci] {
			if bd.Change == geom.BoxChanged {
				boxClass[ci][k] = -1
				continue
			}
			id, ok := classOf[bd.Delta]
			if !ok {
				id = int32(len(classOf))
				classOf[bd.Delta] = id
			}
			boxClass[ci][k] = id
		}
	}
	cls := make([]int32, len(prov))
	for i, pr := range prov {
		cls[i] = boxClass[pr.Conductor][pr.Box]
	}
	return cls
}

// factorMap keys a preconditioner's factorized blocks by their exact
// unknown sequence.
func factorMap(bj *op.BlockJacobi) map[string]*linalg.LDLT {
	idx, f := bj.Factors()
	m := make(map[string]*linalg.LDLT, len(idx))
	var buf []byte
	for k := range idx {
		if f[k] == nil {
			continue
		}
		m[string(blockKey(&buf, idx[k]))] = f[k]
	}
	return m
}

// blockKey serializes a block's unknown sequence into buf.
func blockKey(buf *[]byte, ix []int32) []byte {
	b := (*buf)[:0]
	for _, i := range ix {
		b = binary.LittleEndian.AppendUint32(b, uint32(i))
	}
	*buf = b
	return b
}

// factorLookup builds the NewPrebuilt factor lookup: a previous block's
// factor is adopted when the new block covers the exact same unknown
// sequence and every unknown kept its rigid-motion class (so the block
// matrix is bitwise the previous one). Factor reuse can never
// change results — the preconditioner only steers iteration counts.
func factorLookup(cur *variant, class []int32) func(idx []int32) *linalg.LDLT {
	if cur == nil || cur.factors == nil || class == nil {
		return nil
	}
	factors := cur.factors
	var buf []byte
	return func(ix []int32) *linalg.LDLT {
		if len(ix) == 0 {
			return nil
		}
		c0 := class[ix[0]]
		if c0 < 0 {
			return nil
		}
		for _, i := range ix[1:] {
			if class[i] != c0 {
				return nil
			}
		}
		return factors[string(blockKey(&buf, ix))]
	}
}
