package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"parbem/internal/geom"
	"parbem/internal/geomio"
	"parbem/internal/op"
)

// RequestError is the structured rejection every bad request gets: a
// stable machine-readable code plus a human-readable message. It is the
// only error shape the service emits on its JSON boundary. A
// deadline_exceeded rejection additionally carries partial telemetry:
// the pipeline stage the deadline interrupted, the wall time burned and
// the Krylov iterations completed before the early exit.
type RequestError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Stage is the pipeline stage the deadline interrupted
	// ("discretize", "topology", "near-field", "factorize", "solve", or
	// "queued" when it expired before the job started).
	Stage string `json:"stage,omitempty"`
	// ElapsedMs is the wall time spent on the request before the stop.
	ElapsedMs float64 `json:"elapsed_ms,omitempty"`
	// Iterations is the Krylov work completed before the stop.
	Iterations int `json:"iterations,omitempty"`
	// Residual is the worst relative GMRES residual of the last iterate
	// when a deadline interrupted the solve stage (0 = unknown, 1 = no
	// progress beyond the initial guess). It bounds the accuracy of
	// PartialCFarads.
	Residual float64 `json:"residual,omitempty"`
	// PartialCFarads is the best-effort capacitance matrix reduced from
	// the last GMRES iterates when a deadline interrupted the solve —
	// a partial result alongside the telemetry, accurate only to
	// Residual, never to the requested tolerance.
	PartialCFarads [][]float64 `json:"partial_c_farads,omitempty"`
	// RetryAfterSec, on backpressure rejections (queue_full,
	// rate_limited, draining), is the server's advice on how long to
	// wait before retrying; it is also sent as the HTTP Retry-After
	// header. Zero means no advice.
	RetryAfterSec float64 `json:"retry_after_sec,omitempty"`
}

// Error implements the error interface.
func (e *RequestError) Error() string { return e.Code + ": " + e.Message }

// Rejection codes.
const (
	// CodeBadRequest: malformed JSON, bad geometry text, invalid
	// options, or a geometry outside the admission limits.
	CodeBadRequest = "bad_request"
	// CodeQueueFull: the bounded job queue rejected the request.
	CodeQueueFull = "queue_full"
	// CodeNotFound: unknown job id.
	CodeNotFound = "not_found"
	// CodeExtractionFailed: the solver rejected or failed the geometry.
	CodeExtractionFailed = "extraction_failed"
	// CodePointFailed: one sweep point failed (per-point stream entry).
	CodePointFailed = "point_failed"
	// CodeShuttingDown: the server is closing and admits no new jobs.
	CodeShuttingDown = "shutting_down"
	// CodeDraining: the server is draining ahead of a shutdown or
	// restart; retry against another replica (or after Retry-After).
	CodeDraining = "draining"
	// CodeCancelled: the requester disconnected before the job ran (or
	// mid-sweep).
	CodeCancelled = "cancelled"
	// CodeDeadlineExceeded: the request's timeout_ms expired before the
	// solve converged; the error carries partial telemetry (stage,
	// elapsed_ms, iterations).
	CodeDeadlineExceeded = "deadline_exceeded"
	// CodeRateLimited: the tenant's token bucket rejected the request.
	CodeRateLimited = "rate_limited"
	// CodeInternal: a contained panic inside the solver stack.
	CodeInternal = "internal_error"
)

func badRequest(format string, args ...any) *RequestError {
	return &RequestError{Code: CodeBadRequest, Message: fmt.Sprintf(format, args...)}
}

// Limits bound what one request may ask of the server; everything over
// a limit is rejected at decode time with a structured error, before
// any solver state is touched. The zero value selects the defaults.
// Beside the two settable limits, every request is held to 1024
// conductors and 16384 boxes per structure and 256 sweep points.
type Limits struct {
	// MaxBodyBytes caps the request body (default 8 MiB).
	MaxBodyBytes int64
	// MaxPanels caps the estimated panel count of geometry/edge_m
	// (default 200000): the admission guard against a tiny edge on a
	// large structure allocating unbounded memory.
	MaxPanels int
}

// The limits no server varies.
const (
	maxConductors  = 1024  // conductors per structure
	maxBoxes       = 16384 // total boxes per structure
	maxSweepPoints = 256   // variants/template points per sweep
)

func (l Limits) withDefaults() Limits {
	if l.MaxBodyBytes == 0 {
		l.MaxBodyBytes = 8 << 20
	}
	if l.MaxPanels == 0 {
		l.MaxPanels = 200000
	}
	return l
}

// ExtractRequest is the POST /extract payload: one geometry in the
// geomio text format plus the pipeline options of parbem.ExtractPipeline
// (the same selectors as capx -backend/-precond/-tol/-edge).
type ExtractRequest struct {
	// Geometry is the structure in geomio text format (required).
	Geometry string `json:"geometry"`
	// EdgeM is the max panel edge in meters (required, > 0).
	EdgeM float64 `json:"edge_m"`
	// Backend: auto | dense | fastcap | fmm | pfft ("" = auto).
	Backend string `json:"backend,omitempty"`
	// Precond: "", auto or block. Every Krylov solve is preconditioned
	// by near-field block-Jacobi, so the field only chooses the dense
	// path: block with the dense backend solves by GMRES instead of the
	// direct factorization. Any other value (none and jacobi included)
	// is a bad_request; the field stays parseable so that clients written
	// when it selected among preconditioners keep working.
	Precond string `json:"precond,omitempty"`
	// Precision: "", auto or fp64, all of which solve in float64; any
	// other value (mixed included) is a bad_request. The field stays
	// parseable so that clients written when it selected a float32
	// operator keep working.
	Precision string `json:"precision,omitempty"`
	// Tol is the Krylov relative tolerance (0 = 1e-4).
	Tol float64 `json:"tol,omitempty"`
	// Async enqueues the job and returns its id immediately; poll
	// GET /jobs/{id} for the result.
	Async bool `json:"async,omitempty"`
	// IdempotencyKey deduplicates async submissions: two async requests
	// carrying the same key return the same job id, and a key replayed
	// from the journal after a crash folds onto its original job — so a
	// client retrying a submit it never saw acknowledged can never
	// double-run the work. Ignored for synchronous requests. Max 128
	// bytes; the client generates one automatically for ExtractAsync.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
	// TimeoutMs is the request deadline in milliseconds (0 = none).
	// The clock starts at admission, so time spent queued counts; the
	// deadline propagates into the solver as a context observed at the
	// plan stage boundaries and every GMRES iteration. An exceeded
	// deadline returns a structured deadline_exceeded error (HTTP 504)
	// with partial telemetry instead of burning pool workers.
	TimeoutMs float64 `json:"timeout_ms,omitempty"`
	// opt is Backend, Precond and Tol as op.Options, set by DecodeExtract;
	// a job runs a request only as the decode left it.
	opt op.Options
}

// SweepRequest is the POST /sweep payload. Exactly one of Variants and
// TemplateHs must be set:
//
//   - Variants streams each geometry through the engine's family-keyed
//     plan cache (parbem.NewPlan semantics): variants of one structural
//     family reuse each other's near-field integrals, factorizations
//     and warm starts, exactly like capx -sweep.
//   - TemplateHs runs the template-extraction h-sweep (extract.SweepH)
//     of the elementary crossing pair and streams the fitted a(h), b(h)
//     decompositions. Backend/Precond/Tol are ignored: the template
//     pipeline owns its solver configuration.
type SweepRequest struct {
	// Variants are geomio text geometries, extracted in order.
	Variants []string `json:"variants,omitempty"`
	// TemplateHs are crossing-pair separations in meters.
	TemplateHs []float64 `json:"template_hs_m,omitempty"`
	// EdgeM is the max panel edge in meters (required, > 0).
	EdgeM float64 `json:"edge_m"`
	// Backend, Precond, Precision, Tol: as in ExtractRequest (variants
	// mode only; all four are checked in both modes).
	Backend   string  `json:"backend,omitempty"`
	Precond   string  `json:"precond,omitempty"`
	Precision string  `json:"precision,omitempty"`
	Tol       float64 `json:"tol,omitempty"`
	// TimeoutMs bounds the whole sweep (0 = none); see
	// ExtractRequest.TimeoutMs. An expiring sweep ends its stream with
	// a deadline_exceeded error line in place of the trailer.
	TimeoutMs float64 `json:"timeout_ms,omitempty"`
	// opt is Backend, Precond and Tol as op.Options, set by DecodeSweep;
	// a job runs a request only as the decode left it.
	opt op.Options
}

// decodeJSON unmarshals one JSON value from r under the body cap,
// rejecting trailing garbage.
func decodeJSON(r io.Reader, maxBytes int64, v any) error {
	dec := json.NewDecoder(io.LimitReader(r, maxBytes))
	if err := dec.Decode(v); err != nil {
		return badRequest("invalid JSON: %v", err)
	}
	if dec.More() {
		return badRequest("trailing data after JSON body")
	}
	return nil
}

// DecodeExtract parses and fully validates an /extract body: JSON
// shape, geometry text, finite coordinates, positive box volumes,
// option names and the admission limits. It never panics on malformed
// input (FuzzDecodeRequest) and every rejection is a *RequestError.
func (l Limits) DecodeExtract(r io.Reader) (*ExtractRequest, *geom.Structure, error) {
	l = l.withDefaults()
	var req ExtractRequest
	err := decodeJSON(r, l.MaxBodyBytes, &req)
	if err != nil {
		return nil, nil, err
	}
	if req.opt, err = l.validateSolve(req.EdgeM, req.Backend, req.Precond, req.Precision, req.Tol); err != nil {
		return nil, nil, err
	}
	if err := validateTimeout(req.TimeoutMs); err != nil {
		return nil, nil, err
	}
	if len(req.IdempotencyKey) > 128 {
		return nil, nil, badRequest("idempotency_key exceeds 128 bytes")
	}
	st, err := l.parseGeometry(req.Geometry, req.EdgeM)
	if err != nil {
		return nil, nil, err
	}
	return &req, st, nil
}

// DecodeSweep parses and fully validates a /sweep body; all variant
// geometries (or template separations) are validated up front so a
// malformed point rejects the request instead of failing mid-stream.
func (l Limits) DecodeSweep(r io.Reader) (*SweepRequest, []*geom.Structure, error) {
	l = l.withDefaults()
	var req SweepRequest
	err := decodeJSON(r, l.MaxBodyBytes, &req)
	if err != nil {
		return nil, nil, err
	}
	if (len(req.Variants) == 0) == (len(req.TemplateHs) == 0) {
		return nil, nil, badRequest("exactly one of variants and template_hs_m must be non-empty")
	}
	if n := len(req.Variants) + len(req.TemplateHs); n > maxSweepPoints {
		return nil, nil, badRequest("%d sweep points exceed the limit of %d", n, maxSweepPoints)
	}
	if req.opt, err = l.validateSolve(req.EdgeM, req.Backend, req.Precond, req.Precision, req.Tol); err != nil {
		return nil, nil, err
	}
	if err := validateTimeout(req.TimeoutMs); err != nil {
		return nil, nil, err
	}
	if len(req.TemplateHs) > 0 {
		for i, h := range req.TemplateHs {
			if !isFinite(h) || h <= 0 {
				return nil, nil, badRequest("template_hs_m[%d] = %v is not a positive finite separation", i, h)
			}
		}
		// The sweep panelizes the elementary crossing pair at edge_m; its
		// panel count is the same at every separation.
		if err := checkStructure(geom.DefaultCrossingPair().Build(), req.EdgeM, l); err != nil {
			return nil, nil, err
		}
		return &req, nil, nil
	}
	sts := make([]*geom.Structure, len(req.Variants))
	for i, g := range req.Variants {
		st, err := l.parseGeometry(g, req.EdgeM)
		if err != nil {
			msg := err.Error()
			if re, ok := err.(*RequestError); ok {
				msg = re.Message
			}
			return nil, nil, badRequest("variants[%d]: %s", i, msg)
		}
		sts[i] = st
	}
	return &req, sts, nil
}

// validateTimeout rejects non-finite or negative deadlines (0 = none).
func validateTimeout(ms float64) error {
	if ms != 0 && (!isFinite(ms) || ms < 0) {
		return badRequest("timeout_ms = %v is not a non-negative finite duration", ms)
	}
	return nil
}

// validateSolve checks the option fields of both request kinds and maps them.
func (l Limits) validateSolve(edge float64, backend, precond, precision string, tol float64) (op.Options, error) {
	if !isFinite(edge) || edge <= 0 {
		return op.Options{}, badRequest("edge_m = %v is not a positive finite panel edge", edge)
	}
	switch precision {
	case "", "auto", "fp64":
	default:
		return op.Options{}, badRequest("unsupported precision %q (want auto or fp64: every solve runs in float64)", precision)
	}
	return PipelineOptions(backend, precond, tol)
}

// parseGeometry parses geomio text and enforces the geometry limits.
func (l Limits) parseGeometry(text string, edge float64) (*geom.Structure, error) {
	if text == "" {
		return nil, badRequest("geometry is required (geomio text format)")
	}
	if int64(len(text)) > l.MaxBodyBytes {
		return nil, badRequest("geometry text exceeds %d bytes", l.MaxBodyBytes)
	}
	st, err := geomio.Read(strings.NewReader(text))
	if err != nil {
		return nil, badRequest("bad geometry: %v", err)
	}
	if err := checkStructure(st, edge, l); err != nil {
		return nil, err
	}
	return st, nil
}

// checkStructure enforces the admission limits on a parsed structure:
// well-formedness (geom.Structure.Validate: conductors with boxes of
// finite coordinates and positive size), count caps and the estimated
// panel budget.
func checkStructure(st *geom.Structure, edge float64, l Limits) error {
	if err := st.Validate(); err != nil {
		return badRequest("bad geometry: %v", err)
	}
	if len(st.Conductors) > maxConductors {
		return badRequest("%d conductors exceed the limit of %d", len(st.Conductors), maxConductors)
	}
	boxes := 0
	var panels float64
	for _, c := range st.Conductors {
		boxes += len(c.Boxes)
		if boxes > maxBoxes {
			return badRequest("more than %d boxes", maxBoxes)
		}
		for _, b := range c.Boxes {
			panels += estimatePanels(b.Size(), edge)
			if panels > float64(l.MaxPanels) {
				return badRequest("geometry at edge_m=%g estimates over %d panels (limit %d)",
					edge, int64(panels), l.MaxPanels)
			}
		}
	}
	return nil
}

// estimatePanels approximates the panel count of one box at the given
// edge: each of the six faces splits into ceil(a/edge) x ceil(b/edge)
// panels, exactly like geom.Panelize.
func estimatePanels(sz geom.Vec3, edge float64) float64 {
	nx := math.Ceil(sz.X / edge)
	ny := math.Ceil(sz.Y / edge)
	nz := math.Ceil(sz.Z / edge)
	return 2 * (nx*ny + nx*nz + ny*nz)
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// PipelineOptions maps the wire-format backend/precond/tol selectors
// onto op.Options, with the same semantics as the capx command line.
// Every Krylov solve is block-Jacobi preconditioned, so precond selects
// nothing but the dense path: block on the dense backend asks for the
// iterative solve, while the default dense solve is the direct
// factorization.
func PipelineOptions(backend, precond string, tol float64) (op.Options, error) {
	if tol != 0 && (!isFinite(tol) || tol < 0 || tol >= 1) {
		return op.Options{}, badRequest("tol = %v is not in (0, 1)", tol)
	}
	opt := op.Options{Tol: tol}
	switch backend {
	case "", "auto":
		opt.Backend = op.BackendAuto
	case "fastcap", "fmm":
		opt.Backend = op.BackendFMM
	case "pfft":
		opt.Backend = op.BackendPFFT
	case "dense":
		opt.Backend = op.BackendDense
		opt.Direct = precond == "" || precond == "auto"
	default:
		return op.Options{}, badRequest("unknown backend %q (want auto, dense, fastcap, fmm or pfft)", backend)
	}
	switch precond {
	case "", "auto", "block":
	default:
		return op.Options{}, badRequest("unsupported preconditioner %q (want auto or block: every Krylov solve is block-Jacobi preconditioned)", precond)
	}
	return opt, nil
}
