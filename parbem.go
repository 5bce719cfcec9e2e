// Package parbem is a highly scalable parallel boundary element method for
// capacitance extraction, reproducing Hsiao & Daniel, DAC 2011.
//
// The solver represents surface charge with instantiable basis functions —
// a small number of rich, template-built functions instantiated near wire
// crossings — instead of thousands of piecewise-constant panels. The
// resulting dense system is tiny, so nearly all work is in the
// embarrassingly parallel matrix-fill step, which the paper runs at ~90%
// parallel efficiency on shared memory and on distributed memory. Here
// the distributed-memory backend is a partition of the same fill: each
// of its ranks fills its own rows of the matrix with a private copy of
// the templates and a class table of its own, and the main rank adds the
// ranks' rows into the matrix.
//
// Quick start:
//
//	st := parbem.NewCrossingPair().Build()
//	res, err := parbem.Extract(st, parbem.Options{Backend: parbem.SharedMem})
//	// res.C is the Maxwell capacitance matrix in farads.
//
// # Batch extraction
//
// A lone Extract already integrates each distinct template pair of its
// structure once: the fill groups pairs that are images of one another
// under a translation, a reflection or an exchange of axes into symmetry
// classes, and every repeat of a class is a table lookup (Result.Fill
// reports the counts; see internal/assembly). What a service extracting
// many structures gains from an Engine is reuse *across* structures: one
// persistent worker pool, a concurrency-safe LRU of immutable expensive
// state — template basis sets keyed by exact geometry signature, warmed
// quadrature rules — and one class table shared by all of its
// extractions, so a structure seen before, or one built from the same
// template layouts (mirrored or turned copies included), fills its
// system matrix from lookups alone:
//
//	eng := parbem.NewEngine(parbem.EngineOptions{Workers: 8})
//	defer eng.Close()
//	res, err := eng.Extract(st) // safe to call from several goroutines
//
// On a corpus of repeated bus structures the engine integrates the
// corpus' classes once and builds its basis once (BenchmarkEngineBatch
// in internal/batch has the timing).
//
// # Choosing a backend
//
// The piecewise-constant baselines the paper measures against — the
// dense reference and the multipole and precorrected-FFT accelerated
// solvers — share one driver: ExtractPipeline panelizes the structure,
// builds the selected operator stage by stage on a Plan (see the next
// section; a one-shot extraction is a plan with one variant) and solves
// every conductor excitation through the unified pipeline of
// internal/op: one preconditioned Krylov search space that all the
// excitations of a solve share (each starts from what the earlier ones
// found; it keeps the last 60 directions), or
// for dense with PipelineOptions.Direct one equilibrated
// symmetric-indefinite LDLᵀ, then the shared charge-to-capacitance
// reduction (which the template solver behind Extract uses too). Three
// operator backends implement the pipeline's matvec contract:
//
//   - dense (ExtractReference): parallel symmetric Galerkin assembly
//     plus a direct factorization. O(N^2) memory and O(N^3) time — the
//     accuracy reference, and the automatic choice below ~1800 panels
//     where the cubic term is cheaper than any operator construction.
//   - fmm (ExtractFastCapLike): FASTCAP-style list-driven multipole
//     operator (dual-tree interaction lists, M2L/L2L/L2P downward pass,
//     flat CSR near field); allocation-free concurrency-safe matvec.
//     The safe default at 10^4-10^5 panels and for spread-out or
//     high-aspect structures, and the only accelerated choice at tight
//     (< 1e-6) tolerances.
//   - pfft (ExtractPFFT): precorrected-FFT operator; wins when panels
//     densely fill a compact volume (the cost model's grid fill factor),
//     where the uniform grid convolution amortizes best.
//
// All three take their exact panel-pair integrals — the dense matrix, the
// multipole near field, the pfft precorrection — from one function
// (internal/assembly, "Panels"): a panel is a flat template of amplitude 1,
// so the symmetry-class table of the template fill serves it, and a class
// of panel pairs — one pair up to translation, reflection and exchange of
// axes — is integrated once and looked up everywhere it recurs (the 2x2
// bus at 1 um: 7 260 pairs, 378 classes). A Plan has a table of its own
// unless PlanOptions.Pairs hands it a shared one; an Engine, and with it
// capxd, shares one among every plan it caches, so classes carry over
// between requests, families and H values (`pair_hits` / `pair_misses` in
// /stats). A value depends on its class alone, never on what the table
// has served before.
//
// BackendAuto picks one of the three from the panel count and grid fill
// factor (internal/costmodel.Select). Every Krylov solve is preconditioned
// by near-field block-Jacobi over the operator's near blocks, which cuts
// iteration counts on all three backends; there is no preconditioner to
// choose. The result is a PlanResult: the solve's own outcome (C,
// charges, resolved backend and arithmetic, Krylov iteration total, a
// direct solve's inertia) and per-stage timings. The same controls are
// available on the command line via
// `capx -backend auto|dense|fastcap|fmm|pfft`.
//
// Solves run in float64. A float32 mirror of the fmm and pfft operators
// is kept internally for bench/'s probes; it never showed an end-to-end
// win, so no command, wire field or constant here selects it, though
// PipelineOptions.Precision (aliased from the internal options) still
// reaches it when set to the mixed value by number, until that field goes.
//
// # Sweeps and variants
//
// Design-loop workloads re-extract the same structure under small
// geometry perturbations: separation sweeps, width/spacing studies,
// corpus batches of near-identical cells. A Plan (NewPlan) that outlives
// one extraction makes that incremental instead of from-scratch: it
// factors the build into staged artifacts — discretization, tree/grid
// topology, exact near-field integrals, preconditioner factorizations —
// each content-addressed by what it actually depends on, so a geometry
// delta invalidates only the stages that truly changed. Boxes that move
// rigidly between variants (an h-sweep translating one layer) keep the
// symmetry class of every pair among themselves, so a variant integrates
// only the classes its new separation brings. The dense backend copies
// the entries of those unchanged pairs from the previous matrix; fmm and
// pfft look them up in the class table, as a fresh build does. Block
// factors over unchanged panels are adopted — all of them on the dense
// backend, whose blocks never straddle two conductors — and the previous
// variant's charge solutions, every conductor's, seed the search space the
// Krylov solve starts in.
// Identical geometry is a pure cache hit. A plan has one tolerance and
// one set of solve options for life; a different tolerance is a
// different plan.
//
//	p, _ := parbem.NewPlan(parbem.PlanOptions{MaxEdge: 0.25e-6})
//	for _, h := range hs {
//		sp.H = h
//		res, err := p.Extract(sp.Build()) // reuses unchanged stages
//		...
//	}
//
// On a 16-point crossing h-sweep the shared plan agrees with a fresh
// plan per point to 1e-10 while integrating 36 to 970 classes per variant
// where the first point integrates 1 348, adopting the block factors on
// 13 of 15 steps and converging every seeded solve in fewer iterations
// than its cold twin (TestSweepIncrementalSpeedup asserts that work, not
// wall clock; the timing is the plan_sweep workload of bench/). SweepH and the
// capx -sweep flag run on plans internally. Results must be treated as
// read-only — cache hits return the cached object and the next
// variant's seeds are the stored charges.
//
// # Running as a service
//
// All of the above amortization — the engine's basis and class caches,
// the family-keyed plan cache, the persistent worker pool — pays off
// most when it survives process lifetime. The capxd daemon
// (cmd/capxd, implemented in internal/serve) serves extractions over
// HTTP/JSON from exactly that shared state:
//
//	capxd -addr :8437 -workers 8 -budget 2 -queue 128
//
// The API surface:
//
//   - POST /extract solves one geomio-format geometry through the
//     unified pipeline (backend/precond/tol/edge_m request fields map
//     onto ExtractPipeline); async=true enqueues and returns a job id
//     for GET /jobs/{id}.
//   - POST /sweep streams geometry variants through the family-keyed
//     plan cache (or a template a(h), b(h) h-sweep via SweepH) as
//     NDJSON, one point per line; a failing point becomes a per-point
//     error entry, never a dropped point.
//   - GET /healthz and GET /stats expose liveness, queue gauges, job
//     counters and the engine cache counters.
//   - GET /metrics exposes the same counters plus queue-wait and
//     per-stage latency histograms in Prometheus text exposition
//     format, ready for a standard scrape config.
//
// Admission control keeps the daemon stable under heavy traffic.
// Extracts and sweeps are admitted into separate interactive and bulk
// queues served strict-priority by a fixed runner count, so a bulk
// sweep backlog cannot starve interactive extracts; a full queue
// rejects immediately (HTTP 429, structured queue_full error), and
// per-tenant token buckets (-tenant-rate/-tenant-burst, keyed on the
// X-Tenant header) turn one chatty client's overload into its own 429s
// instead of everyone's queue delay. Each job's parallel work runs on
// a budgeted view of the shared worker pool (-budget workers per job)
// so concurrent requests divide the machine instead of
// oversubscribing it.
//
// Requests carry their own deadlines: a timeout_ms field is propagated
// as a context through the engine, the plan stage builds and the GMRES
// iteration loop, so an expired deadline stops the solve within one
// Krylov iteration and returns a structured deadline_exceeded error
// (HTTP 504) with partial telemetry — the stage reached, elapsed
// milliseconds and iterations completed. Every job lands in exactly
// one of jobs_completed, jobs_failed or jobs_cancelled (client
// disconnects book as cancelled, never failed), so
// accepted == completed + failed + cancelled holds at every /stats
// snapshot.
//
// Responses carry the same telemetry schema as capx -json, and capx
// -remote http://... rides a warm server from the command line.
// Identical-family requests hit the shared plan cache across HTTP
// requests (TestServeWarmCacheSpeedup asserts the reuse — every variant
// after the first adopts the near field and the factors and converges in
// fewer iterations than a one-shot solve — not a wall-clock ratio); the
// golden-corpus harness (TestGoldenCorpus) pins
// every backend against stored reference matrices so service
// refactors cannot silently drift the physics. The capxload harness
// (cmd/capxload) drives the golden corpus at configurable concurrency
// against a live daemon — or an in-process server with -inprocess —
// and reports sustained req/s, latency percentiles and rejection
// rates.
package parbem

import (
	"context"
	"errors"
	"fmt"
	"io"

	"parbem/internal/assembly"
	"parbem/internal/basis"
	"parbem/internal/batch"
	"parbem/internal/extract"
	"parbem/internal/fmm"
	"parbem/internal/geom"
	"parbem/internal/geomio"
	"parbem/internal/kernel"
	"parbem/internal/linalg"
	"parbem/internal/op"
	"parbem/internal/pfft"
	"parbem/internal/plan"
	"parbem/internal/report"
	"parbem/internal/sched"
	"parbem/internal/solver"
)

// Geometry types (see internal/geom for details).
type (
	// Vec3 is a 3-D point or displacement in meters.
	Vec3 = geom.Vec3
	// Box is an axis-aligned conductor block.
	Box = geom.Box
	// Conductor is a named group of boxes at one potential.
	Conductor = geom.Conductor
	// Structure is a complete n-conductor extraction problem.
	Structure = geom.Structure
	// CrossingPairSpec parameterizes the elementary two-wire crossing.
	CrossingPairSpec = geom.CrossingPairSpec
	// BusSpec parameterizes an m x n two-layer bus crossbar.
	BusSpec = geom.BusSpec
	// InterconnectSpec parameterizes the synthetic transistor
	// interconnect structure.
	InterconnectSpec = geom.InterconnectSpec
	// Axis selects X, Y or Z.
	Axis = geom.Axis
)

// Axis constants.
const (
	X = geom.X
	Y = geom.Y
	Z = geom.Z
)

// NewBox constructs a box from two corners. Wire routes a wire along an
// axis.
var (
	NewBox = geom.NewBox
	Wire   = geom.Wire
)

// NewCrossingPair returns the default elementary crossing problem of paper
// Figure 1.
func NewCrossingPair() CrossingPairSpec { return geom.DefaultCrossingPair() }

// NewBus returns the default m x n bus crossbar of paper Figure 7.
func NewBus(m, n int) BusSpec { return geom.DefaultBus(m, n) }

// NewInterconnect returns the synthetic transistor-interconnect structure
// standing in for the paper's industry example.
func NewInterconnect() InterconnectSpec { return geom.DefaultInterconnect() }

// Solver types.
type (
	// Options configures extraction (backend, worker count and kernel
	// tuning).
	Options = solver.Options
	// Result is a completed extraction with the capacitance matrix,
	// sizes and per-phase timing.
	Result = solver.Result
	// FillStats is Result.Fill: the template pairs of the system setup
	// by far and near, the symmetry classes integrated for the near
	// ones, and the class table's size.
	FillStats = assembly.FillStats
	// Backend selects serial, shared-memory or distributed execution.
	Backend = solver.Backend
	// BuilderOptions is what may be set of instantiable-basis
	// generation: nothing, since the basis has one construction.
	BuilderOptions = basis.BuilderOptions
	// KernelConfig is what a template extraction (Options.Kernel) may set
	// of the integration: the outer Gauss order and the switch that turns
	// the paper's Section 4.1 approximations off. The approximation
	// distances themselves are constants of the kernel (12 and 4 mean
	// diameters); a panel extraction always integrates with the default.
	KernelConfig = kernel.Config
	// Matrix is the dense matrix type used for capacitance results.
	Matrix = linalg.Dense
)

// Execution backends.
const (
	Serial      = solver.Serial
	SharedMem   = solver.SharedMem
	Distributed = solver.Distributed
)

// Eps0 is the vacuum permittivity (F/m).
const Eps0 = kernel.Eps0

// NewMatrix allocates a zeroed rows x cols dense matrix (the type
// capacitance results use).
func NewMatrix(rows, cols int) *Matrix { return linalg.NewDense(rows, cols) }

// ErrSelfCapacitance is wrapped by the error a template extraction
// (Extract, or an Engine's) returns when a self-capacitance of the result
// is not positive or not finite.
var ErrSelfCapacitance = solver.ErrSelfCapacitance

// Extract runs instantiable-basis capacitance extraction on a structure.
func Extract(st *Structure, opt Options) (*Result, error) {
	return solver.Extract(st, opt)
}

// Batch extraction engine types (see internal/batch for details).
type (
	// Engine is a batch extraction service: persistent worker pool plus
	// caches of basis sets and symmetry-class integrals shared across
	// extractions.
	Engine = batch.Engine
	// EngineOptions configures NewEngine; the zero value is an engine
	// with GOMAXPROCS workers, which fills on them (SharedMem).
	EngineOptions = batch.Options
	// EngineStats reports the engine's cache effectiveness.
	EngineStats = batch.Stats
)

// NewEngine creates a batch extraction engine and starts its worker
// pool. Call Close when done with it.
func NewEngine(opt EngineOptions) *Engine { return batch.New(opt) }

// PipelineOptions configures the unified piecewise-constant solve
// pipeline: operator backend, tolerance, the dense direct solve and
// per-backend operator tuning. The zero value selects the backend with
// the cost model and a 1e-4 tolerance.
type PipelineOptions = op.Options

// Pipeline backend selectors (see the "Choosing a backend" section
// above).
const (
	BackendAuto  = op.BackendAuto
	BackendDense = op.BackendDense
	BackendFMM   = op.BackendFMM
	BackendPFFT  = op.BackendPFFT
)

// ExtractPipeline solves the structure with the selected (or cost-model
// chosen) piecewise-constant backend on a throwaway Plan: panelize at
// maxEdge, build the operator, solve all conductor excitations with
// preconditioned GMRES (or directly for the dense backend with
// opt.Direct) and reduce to the capacitance matrix. The result reports
// the resolved backend, the total Krylov iteration count and the
// per-stage timings.
func ExtractPipeline(st *Structure, maxEdge float64, opt PipelineOptions) (*PlanResult, error) {
	p, err := NewPlan(PlanOptions{MaxEdge: maxEdge, Pipeline: opt})
	if err != nil {
		return nil, err
	}
	return p.Extract(st)
}

// ExtractReference solves the structure with a finely discretized
// piecewise-constant Galerkin BEM and a dense direct solve. It is O(N^3)
// but gives the accuracy reference for the instantiable-basis solver.
// maxEdge is the maximum panel edge length in meters.
func ExtractReference(st *Structure, maxEdge float64) (*PlanResult, error) {
	return ExtractPipeline(st, maxEdge, PipelineOptions{Backend: BackendDense, Direct: true})
}

// FastCapOptions tunes the multipole baseline's operator. Its Cfg is not
// read (an extraction's are the plan's); for a GMRES tolerance
// other than 1e-4, call ExtractPipeline with PipelineOptions.Tol.
type FastCapOptions = fmm.Options

// ExtractFastCapLike solves the structure with the multipole-accelerated
// piecewise-constant solver (FASTCAP-style: octree + interaction lists +
// Cartesian multipole/local expansions + block-Jacobi preconditioned
// GMRES through the unified pipeline). The returned result carries the
// total Krylov iteration count across all conductor excitations (solved
// concurrently).
func ExtractFastCapLike(st *Structure, maxEdge float64, opt FastCapOptions) (*PlanResult, error) {
	return ExtractPipeline(st, maxEdge, PipelineOptions{
		Backend: BackendFMM, FMM: &opt,
	})
}

// PFFTOptions tunes the precorrected-FFT baseline's operator (see
// FastCapOptions: the tolerance is PipelineOptions.Tol).
type PFFTOptions = pfft.Options

// ExtractPFFT solves the structure with the precorrected-FFT accelerated
// piecewise-constant solver (through the same unified pipeline).
func ExtractPFFT(st *Structure, maxEdge float64, opt PFFTOptions) (*PlanResult, error) {
	return ExtractPipeline(st, maxEdge, PipelineOptions{
		Backend: BackendPFFT, PFFT: &opt,
	})
}

// Staged extraction plan types (see the "Sweeps and variants" section
// above and internal/plan for the stage DAG and reuse rules).
type (
	// Plan is an incremental build/solve chain over geometry variants.
	Plan = plan.Plan
	// PlanOptions configures NewPlan (MaxEdge is required; Pipeline
	// mirrors PipelineOptions).
	PlanOptions = plan.Options
	// PlanResult is a completed piecewise-constant extraction — of one
	// variant of a Plan, or of an ExtractPipeline call: the pipeline's
	// result it embeds, with the panels, per-stage timings and reuse
	// flags. Treat it as read-only.
	PlanResult = plan.Result
	// PlanStats counts a plan's stage builds and reuse.
	PlanStats = plan.Stats
)

// NewPlan creates a staged extraction plan for re-extracting geometry
// variants with delta-aware stage reuse.
func NewPlan(opt PlanOptions) (*Plan, error) { return plan.New(opt) }

// ReadStructure parses a structure from the line-oriented text format of
// internal/geomio (see that package's documentation for the grammar).
func ReadStructure(r io.Reader) (*Structure, error) { return geomio.Read(r) }

// WriteStructure serializes a structure in the text format with the given
// unit scale (0 = microns).
func WriteStructure(w io.Writer, st *Structure, unit float64) error {
	return geomio.Write(w, st, unit)
}

// WriteSpice emits the capacitance matrix as a SPICE subcircuit, skipping
// elements below minCap farads.
func WriteSpice(w io.Writer, c *Matrix, names []string, minCap float64) error {
	return report.WriteSpice(w, c, names, minCap)
}

// CheckMaxwell validates the structural properties of a Maxwell
// capacitance matrix, returning a list of violations (empty = clean).
func CheckMaxwell(c *Matrix, tol float64) []string { return report.CheckMaxwell(c, tol) }

// FormatMatrix renders a capacitance matrix as aligned text at the given
// scale (e.g. 1e15 for femtofarads).
func FormatMatrix(c *Matrix, scale float64, names []string) string {
	return report.FormatMatrix(c, scale, names)
}

// CapToInfinity returns per-conductor total capacitance (row sums).
func CapToInfinity(c *Matrix) []float64 { return report.CapToInfinity(c) }

// Template-extraction pipeline (paper Figure 2): solve the elementary
// crossing problem with the fine reference solver and decompose the
// induced charge profile into flat + arch shapes.
type (
	// Profile is the induced charge profile along the target wire.
	Profile = extract.Profile
	// ArchFit is the fitted flat/arch decomposition a(h), b(h).
	ArchFit = extract.ArchFit
)

// CrossingProfile measures the induced charge profile of a crossing pair.
func CrossingProfile(sp CrossingPairSpec, maxEdge float64) (*Profile, error) {
	return extract.CrossingProfile(sp, maxEdge)
}

// FitArch decomposes a measured profile into the Figure 2 shapes.
func FitArch(p *Profile, sp CrossingPairSpec) (*ArchFit, error) {
	return extract.FitArch(p, sp)
}

// SweepH extracts a(h), b(h) over a range of separations. A failed point
// has a nil fit and its error, tagged with its h, joined into the one
// returned.
func SweepH(base CrossingPairSpec, hs []float64, maxEdge float64) ([]*ArchFit, error) {
	fits, errs := extract.SweepH(context.Background(), sched.Local(0), base, hs, maxEdge)
	for i, err := range errs {
		if err != nil {
			errs[i] = fmt.Errorf("sweep point h=%g: %w", hs[i], err)
		}
	}
	return fits, errors.Join(errs...)
}

// CapError returns the maximum relative difference between two capacitance
// matrices, normalized per-row by the diagonal (the conventional accuracy
// metric for extraction).
func CapError(got, ref *Matrix) float64 {
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
