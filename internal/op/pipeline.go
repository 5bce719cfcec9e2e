package op

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"parbem/internal/costmodel"
	"parbem/internal/fmm"
	"parbem/internal/linalg"
	"parbem/internal/pfft"
)

// Backend selects a solve backend for the pipeline.
type Backend int

// Pipeline backends.
const (
	// BackendAuto picks dense, fmm or pfft via the cost model
	// (internal/costmodel.Select).
	BackendAuto Backend = iota
	// BackendDense assembles the full Galerkin matrix.
	BackendDense
	// BackendFMM uses the list-based multipole operator.
	BackendFMM
	// BackendPFFT uses the precorrected-FFT operator.
	BackendPFFT
)

// String implements fmt.Stringer.
func (b Backend) String() string {
	switch b {
	case BackendAuto:
		return "auto"
	case BackendDense:
		return "dense"
	case BackendFMM:
		return "fmm"
	case BackendPFFT:
		return "pfft"
	}
	return fmt.Sprintf("Backend(%d)", int(b))
}

// Options configures a Pipeline.
type Options struct {
	// Backend selects the operator (default BackendAuto).
	Backend Backend
	// Tol is the Krylov relative residual tolerance (0 = 1e-4).
	Tol float64
	// Direct forces the dense direct solve (one equilibrated, pivoted LDLᵀ,
	// see factorSym) instead of Krylov iteration; it requires the dense
	// backend (auto resolving to dense is fine). The matrix is factored
	// once, when the pipeline is built, in packed lower-triangular storage
	// (linalg.Sym): NewFromSym consumes it, factoring in place; NewPrebuilt
	// factors a copy of its matrix. Extract calls only solve: with
	// S P S = Π L D Lᵀ Πᵀ, one forward sweep gives Y = L⁻¹ Πᵀ S Φ and
	// C = Φᵀ P⁻¹ Φ = Yᵀ D⁻¹ Y, exactly symmetric (linalg.LDLT.QuadForm);
	// the charges are D⁻¹ and the backward sweep of that same Y.
	Direct bool
	// Precision selects the matvec arithmetic of accelerated backends:
	// PrecisionMixed runs the float32 mirror inside fp64 refinement,
	// PrecisionAuto (the default) and PrecisionFP64 run fp64. Dense and
	// direct solves always run fp64.
	Precision Precision
	// FMM tunes the multipole operator (nil = defaults). Its Cfg is not
	// read: FMMOptions sets it from the Spec.
	FMM *fmm.Options
	// PFFT tunes the precorrected-FFT operator (likewise, through
	// PFFTOptions).
	PFFT *pfft.Options
}

// restart bounds the directions a solve's search space keeps: a ring
// shared by every right-hand side of the call, in which a new direction
// overwrites the oldest once it is full. Nothing restarts.
const restart = 60

// withDefaults normalizes zero fields.
func (o Options) withDefaults() Options {
	if o.Tol == 0 {
		o.Tol = 1e-4
	}
	return o
}

// Interrupted reports an extraction stopped at a context checkpoint
// (deadline or cancellation) rather than by convergence or failure. It is
// the one stop report from the solve to the wire: the pipeline returns it
// from its solve, internal/plan from the stage boundaries before it, and
// the service reads it into a request error. Iterations is the total
// Krylov work completed before the stop — the partial telemetry a
// deadline-aware service surfaces to the client. Unwrap exposes the
// context error, so errors.Is(err, context.DeadlineExceeded)
// distinguishes a deadline from a client cancellation.
type Interrupted struct {
	// Stage is the stage that was running, or about to run, at the stop:
	// "solve" from the pipeline; "discretize", "topology", "near-field"
	// or "factorize" from a plan's stage boundaries.
	Stage string
	// Iterations completed across all RHS columns before the stop.
	Iterations int
	// Residual is the worst (largest) relative residual across the RHS
	// columns of Partial at the stop: what the column in flight had
	// reached, or 1 (no progress) when a later column had not been
	// started. 0 = unknown (the stop preceded the solve).
	Residual float64
	// Partial is the best-effort charge solution (nil when the stop
	// preceded any iterate). Columns are solved in index order: those
	// before the one in flight carry their converged solutions, that one
	// the iterate whose residual it reports (x and r move together, one
	// direction at a time), those after it zeros.
	Partial *linalg.Dense
	// PartialC is the capacitance matrix reduced from Partial — the
	// deadline-aware partial result a service surfaces alongside the
	// error telemetry. Best-effort only: its accuracy is bounded by
	// Residual, not by the requested tolerance.
	PartialC *linalg.Dense
	// Err is the context error (context.DeadlineExceeded or Canceled).
	Err error
}

// Error implements the error interface.
func (e *Interrupted) Error() string {
	return fmt.Sprintf("op: %s stage interrupted after %d iterations: %v", e.Stage, e.Iterations, e.Err)
}

// Unwrap exposes the underlying context error.
func (e *Interrupted) Unwrap() error { return e.Err }

// Result is a completed extraction through the pipeline.
type Result struct {
	C          *linalg.Dense // n x n capacitance matrix (F)
	Rho        *linalg.Dense // N x n panel charge densities per excitation
	NumPanels  int
	Iterations int // total Krylov iterations (0 for direct)
	// Applies counts the operator applications of the Krylov solve: the
	// iterations, one per seed and one true-residual check per column.
	Applies int
	// Backend is the resolved operator backend (never BackendAuto).
	Backend Backend
	// Precision is the resolved matvec arithmetic (never PrecisionAuto).
	Precision Precision
	// Inertia is what the direct solve's factorization found: negative
	// pivots mean the system matrix was not positive definite (see
	// factorSym). Zero for Krylov solves, which factor nothing.
	Inertia linalg.Inertia
}

// Pipeline is the unified solve path: one operator, one preconditioner,
// one Krylov search space per solve call, and the shared RHS-construction
// and capacitance-reduction steps. It never builds an operator: construct
// with NewPrebuilt (stage artifacts of internal/plan, the one driver of a
// panel extraction), NewWithOperator (caller-supplied operator) or
// NewFromSym (already-assembled system matrix). A Pipeline may be
// reused for many solves; the Extract methods are safe to call
// concurrently.
type Pipeline struct {
	spec    Spec
	opt     Options
	n       int          // the system's dimension
	a       Operator     // nil for NewFromSym, whose matrix is its factor
	pre     *BlockJacobi // nil on the direct path
	dense   *linalg.Sym  // retained when the backend assembled densely
	scale   []float64    // the direct solve's equilibration (see factorSym)
	ldl     *linalg.LDLT // and its factorization
	backend Backend
	// ws is the free list of search-space buffers, one per solve call in
	// flight. Not a sync.Pool: the runtime keeps a pool that has been Put
	// to reachable for two collections, and as a field this one kept every
	// dead pipeline of a service that builds one per request — matrix and
	// block factors — with it: 100 of serve_mix's 168 MB live heap.
	wsMu sync.Mutex
	ws   []*linalg.GMRESWorkspace
	// factors is the optional reused-block lookup of NewPrebuilt.
	factors func(idx []int32) *linalg.LDLT
	// mixedA is non-nil when the resolved precision is mixed: the
	// operator with its float32 mirror enabled (see precision.go).
	mixedA MixedApplier
}

// NewWithOperator wraps a caller-constructed operator (any Matvec) in
// the pipeline; spec supplies the RHS data, the executor and the exact
// diagonal the preconditioner falls back to.
func NewWithOperator(spec Spec, a Operator, opt Options) (*Pipeline, error) {
	spec = spec.withDefaults()
	opt = opt.withDefaults()
	if a.Dim() != spec.N() {
		return nil, errors.New("op: operator dimension mismatch")
	}
	if opt.Direct {
		return nil, errors.New("op: direct solve needs a dense backend, not a wrapped operator")
	}
	p := &Pipeline{spec: spec, opt: opt, n: a.Dim(), a: a, backend: backendOf(a)}
	if err := p.buildPrecond(); err != nil {
		return nil, err
	}
	p.resolvePrecision()
	return p, nil
}

// NewFromSym wraps an already-assembled system matrix, held as its packed
// lower triangle, for the direct solve (the instantiable-basis solver's
// path; opt.Direct must be set: a Krylov solve wants the panels behind the
// matrix, see NewPrebuilt). The spec-free pipeline takes its dimensions
// from the matrix. It consumes m: m becomes the factor, and nothing of
// its size is allocated (see factorSym and Options.Direct).
func NewFromSym(m *linalg.Sym, opt Options) (*Pipeline, error) {
	opt = opt.withDefaults()
	if !opt.Direct {
		return nil, errors.New("op: NewFromSym solves directly (set Options.Direct)")
	}
	s, f, err := factorSym(m, m, nil)
	if err != nil {
		return nil, err
	}
	return &Pipeline{opt: opt, n: m.N, scale: s, ldl: f, backend: BackendDense}, nil
}

// DirectCapacitance is NewFromSym and ExtractRHS for a caller that wants
// C alone, of a right-hand side with one nonzero per row: row i of Φ holds
// moment[i] in column cond[i] of nc. It runs the forward sweep and
// C = Yᵀ D⁻¹ Y (see Options.Direct), bitwise ExtractRHS's C on that Φ, and
// no backward sweep: Result.Rho is nil. Like NewFromSym it consumes m. One
// buffer of max(linalg.FactorWork(N), N·nc) doubles is the factorization's
// panel workspace and then Y, and dies with the call.
func DirectCapacitance(m *linalg.Sym, cond []int, moment []float64, nc int) (*Result, error) {
	n := m.N
	if len(cond) != n || len(moment) != n {
		return nil, errors.New("op: RHS dimension mismatch")
	}
	work := make([]float64, max(linalg.FactorWork(n), n*nc))
	s, f, err := factorSym(m, m, work)
	if err != nil {
		return nil, err
	}
	y := linalg.NewDenseFrom(n, nc, work[:n*nc])
	clear(y.Data)
	var bad float64 // stays 0 while every moment is finite
	for i, c := range cond {
		if c < 0 || c >= nc {
			return nil, fmt.Errorf("op: unknown %d on conductor %d of %d", i, c, nc)
		}
		y.Set(i, c, s[i]*moment[i])
		bad += moment[i] * 0
	}
	if bad != 0 {
		return nil, fmt.Errorf("op: non-finite right-hand side: %w", linalg.ErrSingular)
	}
	f.Forward(y)
	return &Result{
		C: f.QuadForm(y), NumPanels: n, Backend: BackendDense,
		Precision: PrecisionFP64, Inertia: f.Inertia(),
	}, nil
}

// NewFromDense is NewFromSym on the lower triangle of the square matrix m,
// packed in place inside m's own storage (linalg.PackLower): it consumes
// m too, and allocates no copy of it.
func NewFromDense(m *linalg.Dense, opt Options) (*Pipeline, error) {
	if m.Rows != m.Cols {
		return nil, errors.New("op: system matrix not square")
	}
	return NewFromSym(linalg.PackLower(m), opt)
}

// FMMOptions resolves the multipole operator options of a spec: the
// caller's tuning, with the spec's kernel configuration (an extraction
// has one, whatever its backend) and, unless the caller gave one, the
// spec's class table. The stage builders of internal/plan construct their
// operators from it.
func FMMOptions(spec Spec, opt Options) fmm.Options {
	spec = spec.withDefaults()
	fo := fmm.Options{}
	if opt.FMM != nil {
		fo = *opt.FMM
	}
	fo.Cfg = spec.Cfg
	if fo.Pairs == nil {
		fo.Pairs = spec.Pairs
	}
	if fo.Exec == nil && fo.Pool == nil && fo.Workers == 0 {
		// No explicit parallelism configured: the operator runs on the
		// spec's executor (a service's budgeted shared pool, a plan's
		// stage executor), like the dense assembly and reduction do.
		fo.Exec = spec.Exec
	}
	return fo
}

// PFFTOptions resolves the precorrected-FFT operator options of a spec
// (see FMMOptions).
func PFFTOptions(spec Spec, opt Options) pfft.Options {
	spec = spec.withDefaults()
	po := pfft.Options{}
	if opt.PFFT != nil {
		po = *opt.PFFT
	}
	po.Cfg = spec.Cfg
	if po.Pairs == nil {
		po.Pairs = spec.Pairs
	}
	if po.Exec == nil && po.Pool == nil && po.Workers == 0 {
		// See FMMOptions: inherit the spec's executor when the caller
		// configured no operator-level parallelism.
		po.Exec = spec.Exec
	}
	return po
}

// ResolveBackend reports the backend a plan builds for spec/opt
// (BackendAuto resolved through the cost model).
func ResolveBackend(spec Spec, opt Options) Backend {
	spec = spec.withDefaults()
	opt = opt.withDefaults()
	if opt.Backend == BackendAuto {
		return selectBackend(&spec, opt)
	}
	return opt.Backend
}

// Prebuilt supplies stage artifacts constructed by the caller (the
// staged extraction plans in internal/plan) to NewPrebuilt: the solve
// operator, the assembled system matrix when the operator wraps one,
// and an optional lookup of previously factorized near blocks for the
// block-Jacobi preconditioner.
type Prebuilt struct {
	// Operator is the solve backend (required unless Dense is set, in
	// which case a DenseOperator is wrapped around it).
	Operator Operator
	// Dense is the assembled system matrix, its packed lower triangle,
	// backing a dense operator; required for Options.Direct.
	Dense *linalg.Sym
	// Factors optionally returns a previously computed factor of the
	// near block over idx (nil result = factorize fresh). A
	// factor is only valid if the block's values are unchanged — the
	// preconditioner is an approximate inverse, so a stale factor
	// degrades convergence but never correctness.
	Factors func(idx []int32) *linalg.LDLT
}

// NewPrebuilt wraps caller-built stage artifacts in a pipeline,
// skipping operator construction entirely. The spec supplies RHS data,
// the executor and the exact diagonal the preconditioner falls back to.
func NewPrebuilt(spec Spec, opt Options, pb Prebuilt) (*Pipeline, error) {
	spec = spec.withDefaults()
	opt = opt.withDefaults()
	a := pb.Operator
	if a == nil {
		if pb.Dense == nil {
			return nil, errors.New("op: NewPrebuilt needs an operator or an assembled matrix")
		}
		a = NewDenseOperator(pb.Dense, spec.Panels, spec.Exec)
	}
	if a.Dim() != spec.N() {
		return nil, errors.New("op: prebuilt operator dimension mismatch")
	}
	p := &Pipeline{
		spec: spec, opt: opt, n: a.Dim(), a: a, dense: pb.Dense,
		backend: backendOf(a), factors: pb.Factors,
	}
	if opt.Direct {
		if p.dense == nil {
			return nil, errors.New("op: direct solve requires an assembled dense matrix")
		}
		var err error // a copy: a plan rewrites its matrix for the next variant
		if p.scale, p.ldl, err = factorSym(linalg.NewSym(p.n), p.dense, nil); err != nil {
			return nil, err
		}
	}
	if err := p.buildPrecond(); err != nil {
		return nil, err
	}
	p.resolvePrecision()
	return p, nil
}

// selectBackend runs the cost model over the spec's panel statistics.
func selectBackend(spec *Spec, opt Options) Backend {
	span, med := spec.stats()
	switch costmodel.Select(costmodel.Workload{
		Panels:     spec.N(),
		Span:       span,
		MedianEdge: med,
		Tol:        opt.Tol,
	}) {
	case costmodel.ChooseDense:
		return BackendDense
	case costmodel.ChoosePFFT:
		return BackendPFFT
	}
	return BackendFMM
}

// backendOf classifies a caller-supplied operator for Result reporting.
func backendOf(a Operator) Backend {
	switch a.(type) {
	case *fmm.Operator:
		return BackendFMM
	case *pfft.Operator:
		return BackendPFFT
	}
	return BackendDense
}

// buildPrecond constructs the block-Jacobi preconditioner over the
// operator's near blocks; an operator that exposes none gets it over no
// blocks, which is point-Jacobi on the exact diagonal. The direct path
// needs no preconditioner.
func (p *Pipeline) buildPrecond() error {
	if p.opt.Direct {
		return nil
	}
	var idx [][]int32
	var block func(k int) *linalg.Sym
	if nb, ok := p.a.(NearBlocker); ok {
		idx, block = nb.NearBlocks()
	}
	bj, err := NewBlockJacobiWith(p.a.Dim(), idx, block, p.diagonal(), p.factors)
	if err != nil {
		return err
	}
	p.pre = bj
	return nil
}

// diagonal returns the exact matrix diagonal from the cheapest source
// available: the assembled matrix, else the spec's entry integrals.
func (p *Pipeline) diagonal() []float64 {
	if p.dense != nil {
		d := make([]float64, p.dense.N)
		for i := range d {
			d[i] = p.dense.At(i, i)
		}
		return d
	}
	return p.spec.diagonal()
}

// Preconditioner exposes the built preconditioner (nil on the direct
// path).
func (p *Pipeline) Preconditioner() *BlockJacobi { return p.pre }

// ExtractWarmCtx builds the unit-potential RHS from the spec, solves and
// reduces to the capacitance matrix. The columns of x0 (typically the
// previous geometry variant's charge solution in a sweep) seed the Krylov
// search space every conductor's solve starts in, one operator
// application each; a nil or shape-mismatched x0 means an empty space, and
// the direct path and the mixed-precision refinement ignore it. Seeds
// change iteration counts, never the converged solution (which is
// determined by the tolerance). The solve observes ctx before every
// operator application, so a deadline or cancellation stops it early with
// an *Interrupted error carrying the iterations completed; the direct path,
// factored when the pipeline was built, checks ctx once before its
// triangular solves. A nil ctx means context.Background().
func (p *Pipeline) ExtractWarmCtx(ctx context.Context, x0 *linalg.Dense) (*Result, error) {
	if p.spec.NumConductors == 0 {
		return nil, errors.New("op: pipeline has no spec (use ExtractRHS)")
	}
	return p.extractRHS(ctx, p.spec.RHS(), x0)
}

// ExtractRHS solves P Rho = Phi for a caller-built right-hand-side
// matrix and returns C = Phi^T P^-1 Phi with the charges Rho: on the direct
// path C = Yᵀ D⁻¹ Y from the forward sweep (see Options.Direct), exactly
// symmetric; on the Krylov path C = Phi^T Rho, symmetrized (Reduce).
func (p *Pipeline) ExtractRHS(phi *linalg.Dense) (*Result, error) {
	return p.extractRHS(context.Background(), phi, nil)
}

func (p *Pipeline) extractRHS(ctx context.Context, phi, x0 *linalg.Dense) (*Result, error) {
	if phi.Rows != p.n {
		return nil, errors.New("op: RHS dimension mismatch")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, &Interrupted{Stage: "solve", Err: err}
	}
	res := &Result{NumPanels: p.n, Backend: p.backend, Precision: p.Precision()}
	if p.ldl != nil {
		var err error
		if res.C, res.Rho, err = p.solveDirect(phi); err != nil {
			return nil, err
		}
		res.Inertia = p.ldl.Inertia()
		return res, nil
	}
	if err := p.solveKrylov(ctx, phi, x0, res); err != nil {
		// A context interruption still reduces whatever iterate the
		// solve reached into a best-effort capacitance estimate, so a
		// deadline-aware caller can return a partial result instead of
		// nothing.
		var oi *Interrupted
		if errors.As(err, &oi) && oi.Partial != nil {
			oi.PartialC = Reduce(phi, oi.Partial)
		}
		return nil, err
	}
	res.C = Reduce(phi, res.Rho)
	return res, nil
}

// solveKrylov solves the columns of phi in index order in one
// residual-minimising search space (linalg.GMRESWorkspace): the columns
// share the operator and their Krylov spaces overlap, so each first
// projects onto the directions the earlier ones left and pays applications
// only for what is missing. The columns of a matching x0 — the previous
// variant's charges — go in first as seeds, one application each; the
// mixed-precision refinement solves against two operators, so it takes
// none and empties the space for every inner solve. The space lives for
// this call only, on buffers from the pipeline's free list. Nothing is
// spawned: a solve's parallelism is its operator's, on the spec's executor.
func (p *Pipeline) solveKrylov(ctx context.Context, phi, x0 *linalg.Dense, out *Result) error {
	n := p.n
	nc := phi.Cols
	rho := linalg.NewDense(n, nc)
	opt := linalg.GMRESOptions{Tol: p.opt.Tol, Restart: restart, Ctx: ctx, Precond: p.pre.Apply}
	ws := p.acquireWS()
	defer p.releaseWS(ws)
	ws.Reset(n, restart)
	b := make([]float64, n)
	x := make([]float64, n)
	if x0 != nil && x0.Rows == n && x0.Cols == nc && p.mixedA == nil {
		for j := 0; j < nc; j++ {
			if err := ctx.Err(); err != nil {
				return &Interrupted{Stage: "solve", Err: err}
			}
			for i := range x {
				x[i] = x0.At(i, j)
			}
			ws.Seed(p.a, x) // a dependent seed is dropped
			out.Applies++
		}
	}
	worst := 0.0 // largest residual over the columns solved so far
	for j := 0; j < nc; j++ {
		for i := range b {
			b[i], x[i] = phi.At(i, j), 0
		}
		var res linalg.GMRESResult
		var err error
		if p.mixedA != nil {
			res, err = p.solveRefined(ctx, ws, x, b, opt.Precond)
		} else {
			res, err = ws.Solve(p.a, x, b, opt)
		}
		// The iterate counts even on failure: an interrupted solve
		// reports the work it completed, and its partial charges feed the
		// best-effort capacitance of a deadline-aware early exit.
		out.Iterations += res.Iterations
		out.Applies += res.Applies
		worst = math.Max(worst, res.Residual)
		for i := range x {
			rho.Set(i, j, x[i])
		}
		if cerr := ctx.Err(); err != nil && cerr != nil && errors.Is(err, cerr) {
			if j < nc-1 {
				worst = math.Max(worst, 1) // no progress on a column not started
			}
			return &Interrupted{
				Stage: "solve", Iterations: out.Iterations, Residual: worst, Partial: rho, Err: cerr,
			}
		}
		if err != nil {
			return fmt.Errorf("op: GMRES failed on column %d: %w", j, err)
		}
		if !res.Converged {
			return fmt.Errorf("op: GMRES stalled on column %d (res %g)", j, res.Residual)
		}
	}
	out.Rho = rho
	return nil
}

// acquireWS takes a search space's buffers from the free list.
func (p *Pipeline) acquireWS() *linalg.GMRESWorkspace {
	p.wsMu.Lock()
	defer p.wsMu.Unlock()
	k := len(p.ws)
	if k == 0 {
		return &linalg.GMRESWorkspace{}
	}
	ws := p.ws[k-1]
	p.ws = p.ws[:k-1]
	return ws
}

// releaseWS returns a workspace to the free list.
func (p *Pipeline) releaseWS(ws *linalg.GMRESWorkspace) {
	p.wsMu.Lock()
	p.ws = append(p.ws, ws)
	p.wsMu.Unlock()
}

// Reduce computes the capacitance matrix C = Phi^T Rho of a Krylov solve
// and enforces exact symmetry (P is symmetric, so C is up to roundoff and
// the solve's tolerance). It accumulates over the rows k of Phi in k
// order, zero coefficients included, so each entry gets the additions of
// Mul(Phi^T, Rho) in the same order without Phi^T being formed.
func Reduce(phi, rho *linalg.Dense) *linalg.Dense {
	n := phi.Cols
	c := linalg.NewDense(n, rho.Cols)
	for k := 0; k < phi.Rows; k++ {
		for i, v := range phi.Row(k) {
			linalg.Axpy(v, rho.Row(k), c.Row(i))
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := 0.5 * (c.At(i, j) + c.At(j, i))
			c.Set(i, j, v)
			c.Set(j, i, v)
		}
	}
	return c
}

// factorSym factors the symmetric system matrix p of a Galerkin
// discretization for the direct solve. P is positive definite in exact
// arithmetic but not here: the paper's point and collocation approximations
// of far and mid-range template pairs (Section 4.1) are not Galerkin
// integrals and can carry an eigenvalue across zero (the 16x16 bus, at unit
// diagonal, has one at -0.016 under a spectrum that reaches 60). So the one
// factorization is a pivoted symmetric-indefinite LDLᵀ (linalg.FactorSym),
// which costs N³/6 multiply-adds whatever the inertia and reports it; a
// diagonal shift would solve a different system. It factors S P S with
// S = diag(|P_ii|^-1/2) (1 where P_ii = 0), returned as scale: the diagonal
// spans orders of magnitude, and unscaled, Bunch–Kaufman pivoting would
// interchange on units, not on structure. The packed lower triangle of
// S P S, P being src, is written into dst (which may be src) and factored
// there, in the panel workspace work (see linalg.FactorSymWork; nil = its
// own). A singular matrix, or a NaN or Inf in it, is an error wrapping
// linalg.ErrSingular.
func factorSym(dst, src *linalg.Sym, work []float64) (scale []float64, f *linalg.LDLT, err error) {
	nr := dst.N
	s := make([]float64, nr)
	for i := range s {
		s[i] = 1
		if d := math.Abs(src.Row(i)[i]); d != 0 {
			s[i] = 1 / math.Sqrt(d)
		}
	}
	for i := 0; i < nr; i++ {
		prow, drow, si := src.Row(i), dst.Row(i), s[i]
		for j := range drow {
			drow[j] = si * prow[j] * s[j]
		}
	}
	if f, err = linalg.FactorSymWork(dst, work); err != nil {
		return nil, nil, fmt.Errorf("op: system matrix unsolvable: %w", err)
	}
	return s, f, nil
}

// solveDirect returns C = Phi^T P^-1 Phi and X with P X = phi from one
// forward sweep of S Phi: C = Yᵀ D⁻¹ Y, and X is S times D⁻¹ and the
// backward sweep of that Y. It only reads the factor, so calls may run
// concurrently; a NaN or Inf in phi is an error wrapping
// linalg.ErrSingular.
func (p *Pipeline) solveDirect(phi *linalg.Dense) (c, x *linalg.Dense, err error) {
	nr, s := p.n, p.scale
	x = linalg.NewDense(nr, phi.Cols)
	var bad float64 // stays 0 while every entry of Phi is finite
	for i := 0; i < nr; i++ {
		xrow, si := x.Row(i), s[i]
		for j, v := range phi.Row(i) {
			xrow[j] = si * v
			bad += v * 0
		}
	}
	if bad != 0 {
		return nil, nil, fmt.Errorf("op: non-finite right-hand side: %w", linalg.ErrSingular)
	}
	p.ldl.Forward(x)
	c = p.ldl.QuadForm(x)
	p.ldl.Backward(x)
	for i := 0; i < nr; i++ {
		linalg.Scal(s[i], x.Row(i))
	}
	return c, x, nil
}
