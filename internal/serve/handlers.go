package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"parbem/internal/geom"
	"parbem/internal/linalg"
	"parbem/internal/op"
	"parbem/internal/plan"
	"parbem/internal/report"
)

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /extract", s.handleExtract)
	mux.HandleFunc("POST /sweep", s.handleSweep)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// errorEnvelope is the JSON shape of every non-2xx response.
type errorEnvelope struct {
	Error *RequestError `json:"error"`
}

// writeJSON emits one JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// asRequestError coerces any error to the structured shape, wrapping
// foreign errors as extraction failures.
func asRequestError(err error) *RequestError {
	if re, ok := err.(*RequestError); ok {
		return re
	}
	return &RequestError{Code: CodeExtractionFailed, Message: err.Error()}
}

// writeError wraps any error as a structured rejection. Backpressure
// rejections carrying RetryAfterSec additionally set the HTTP
// Retry-After header (whole seconds, rounded up) so generic clients and
// proxies can honor the advice without parsing the body.
func writeError(w http.ResponseWriter, err error) {
	re := asRequestError(err)
	status := http.StatusBadRequest
	switch re.Code {
	case CodeQueueFull, CodeRateLimited:
		status = http.StatusTooManyRequests
	case CodeDeadlineExceeded:
		status = http.StatusGatewayTimeout
	case CodeNotFound:
		status = http.StatusNotFound
	case CodeExtractionFailed:
		status = http.StatusUnprocessableEntity
	case CodeShuttingDown, CodeDraining:
		status = http.StatusServiceUnavailable
	case CodeInternal:
		status = http.StatusInternalServerError
	}
	if re.RetryAfterSec > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(re.RetryAfterSec))))
	}
	writeJSON(w, status, errorEnvelope{Error: re})
}

// ExtractResponse is the POST /extract result: the capx -json pipeline
// telemetry schema plus the job id and the plan-stage reuse marker, which
// the daemon always sets and a one-shot capx run leaves out.
type ExtractResponse struct {
	JobID     string `json:"job_id,omitempty"`
	Structure string `json:"structure"`
	Backend   string `json:"backend"`
	Requested string `json:"requested"`
	Precond   string `json:"precond"`
	// Precision is the matvec arithmetic of the solve: always "fp64",
	// the only arithmetic a request can select.
	Precision  string  `json:"precision"`
	NumPanels  int     `json:"num_panels"`
	EdgeM      float64 `json:"edge_m"`
	Tol        float64 `json:"tol"`
	Iterations int     `json:"iterations"`
	// Reused reports the plan-stage reuse of the build that produced
	// this result: "none", "near-field" (dense entries copied from the
	// previous variant, or a near field adopted from the artifact store),
	// "factors" (block factors adopted over a near field that was built —
	// an fmm or pfft variant) or "near-field+factors". An
	// identical-geometry cache hit repeats the original build's flags.
	Reused     string      `json:"reused,omitempty"`
	SetupMs    float64     `json:"setup_ms"`
	SolveMs    float64     `json:"solve_ms"`
	TotalMs    float64     `json:"total_ms"`
	Conductors []string    `json:"conductors"`
	CFarads    [][]float64 `json:"c_farads"`
	Warnings   []string    `json:"maxwell_warnings,omitempty"`
}

// JobResponse is the GET /jobs/{id} payload; Result is set once done.
type JobResponse struct {
	JobID    string           `json:"job_id"`
	Kind     string           `json:"kind"`
	Status   string           `json:"status"`
	QueuedMs float64          `json:"queued_ms"`
	RunMs    float64          `json:"run_ms,omitempty"`
	Result   *ExtractResponse `json:"result,omitempty"`
	Error    *RequestError    `json:"error,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		// 503 flips load-balancer health checks away from a replica
		// that is about to go down while its backlog finishes.
		writeJSON(w, http.StatusServiceUnavailable,
			map[string]any{"ok": false, "status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "status": "ok"})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// admitTenant applies the per-tenant token bucket (X-Tenant header;
// absent headers share one anonymous bucket) before any decode work is
// spent on the request. Nil limiter admits everything.
func (s *Server) admitTenant(r *http.Request) error {
	if s.limiter == nil {
		return nil
	}
	tenant := r.Header.Get("X-Tenant")
	if ok, wait := s.limiter.allow(tenant, time.Now()); !ok {
		s.c.rejectedRate.Add(1)
		return &RequestError{
			Code:          CodeRateLimited,
			Message:       fmt.Sprintf("tenant %q over its request rate; retry later", tenant),
			RetryAfterSec: wait.Seconds(),
		}
	}
	return nil
}

func (s *Server) handleExtract(w http.ResponseWriter, r *http.Request) {
	if err := s.admitTenant(r); err != nil {
		writeError(w, err)
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.limits.MaxBodyBytes)
	req, st, err := s.limits.DecodeExtract(body)
	if err != nil {
		s.c.badRequests.Add(1)
		writeError(w, err)
		return
	}
	// Async jobs deliberately detach from the submitting request;
	// synchronous jobs carry the client's context so a queued job
	// whose client gave up is skipped instead of burning the pool.
	ctx := r.Context()
	if req.Async {
		ctx = context.Background()
	}
	j := s.newExtractJob(ctx, req, st)
	dup, err := s.admit(j)
	if err != nil {
		writeError(w, err)
		return
	}
	if dup != nil {
		// The idempotency key matched a live job: the retried submit
		// observes its original instead of enqueueing a twin.
		writeJSON(w, http.StatusAccepted, JobResponse{
			JobID: dup.id, Kind: dup.kind, Status: jobState(dup.state.Load()).String(),
		})
		return
	}
	if req.Async {
		writeJSON(w, http.StatusAccepted, JobResponse{
			JobID: j.id, Kind: j.kind, Status: jobState(j.state.Load()).String(),
		})
		return
	}
	select {
	case <-j.done:
	case <-r.Context().Done():
		// Client gone; a job already running completes into the /jobs
		// history, a queued one is skipped when popped.
		return
	}
	if j.err != nil {
		writeError(w, j.err)
		return
	}
	writeJSON(w, http.StatusOK, j.result)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, &RequestError{Code: CodeNotFound, Message: "unknown job id"})
		return
	}
	state := jobState(j.state.Load())
	resp := JobResponse{JobID: j.id, Kind: j.kind, Status: state.String()}
	switch state {
	case jobDone, jobFailed, jobCancelled:
		resp.QueuedMs = j.started.Sub(j.enqueued).Seconds() * 1e3
		resp.RunMs = j.finished.Sub(j.started).Seconds() * 1e3
		if j.err != nil {
			resp.Error = asRequestError(j.err)
		} else if res, ok := j.result.(*ExtractResponse); ok {
			resp.Result = res
		}
	case jobRunning:
		resp.QueuedMs = j.started.Sub(j.enqueued).Seconds() * 1e3
	}
	writeJSON(w, http.StatusOK, resp)
}

// requestErrorFor maps an engine error onto the structured service
// shape. An *op.Interrupted — the deadline or disconnect observed at a
// plan's stage boundary or a GMRES iteration checkpoint — keeps its
// partial telemetry (the stage that was running, the Krylov iterations
// completed) and, when the solve got far enough to produce one, the
// best-effort partial result: the last iterates' worst relative residual
// and the capacitance matrix reduced from them, accurate only to that
// residual. elapsed is the request's wall time before the stop.
func requestErrorFor(err error, elapsed time.Duration) *RequestError {
	re := &RequestError{Message: err.Error()}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		re.Code = CodeDeadlineExceeded
	case errors.Is(err, context.Canceled):
		re.Code = CodeCancelled
	default:
		re.Code = CodeExtractionFailed
		return re
	}
	re.ElapsedMs = elapsed.Seconds() * 1e3
	var oi *op.Interrupted
	if errors.As(err, &oi) {
		re.Stage, re.Iterations, re.Residual = oi.Stage, oi.Iterations, oi.Residual
		if oi.PartialC != nil {
			re.PartialCFarads = matrixRows(oi.PartialC)
		}
	}
	return re
}

// runExtract executes one admitted extract job on the shared engine,
// bounded by the job's deadline/cancellation context.
func (s *Server) runExtract(j *job, req *ExtractRequest, st *geom.Structure) (*ExtractResponse, error) {
	t0 := time.Now()
	res, err := s.eng.ExtractPipelineCtx(j.ctx, st, req.EdgeM, req.opt)
	if err != nil {
		return nil, requestErrorFor(err, time.Since(t0))
	}
	total := time.Since(t0)
	s.m.observeStages(res.Backend.String(), res.Stages, total)
	out := NewExtractResponse(st, res, req.Backend, req.Precond, req.EdgeM, req.Tol, total)
	out.JobID, out.Reused = j.id, ReusedName(res.Reused)
	return out, nil
}

// NewExtractResponse fills the telemetry record of one plan extraction
// for the request that asked for it (backend and precond as requested,
// "" = auto; total is the caller's wall time around the extraction). It
// is the one place a plan result becomes JSON: POST /extract adds the job
// id and the reuse marker, capx -json prints it as it is. Setup is
// everything before the solve stage.
func NewExtractResponse(st *geom.Structure, res *plan.Result, backend, precond string, edgeM, tol float64, total time.Duration) *ExtractResponse {
	setup := res.Stages.Discretize + res.Stages.Topology + res.Stages.NearField + res.Stages.Factorize
	return &ExtractResponse{
		Structure:  st.Name,
		Backend:    res.Backend.String(),
		Requested:  requestedName(backend),
		Precond:    requestedName(precond),
		Precision:  res.Precision.String(),
		NumPanels:  res.NumPanels,
		EdgeM:      edgeM,
		Tol:        tol,
		Iterations: res.Iterations,
		SetupMs:    setup.Seconds() * 1e3,
		SolveMs:    res.Stages.Solve.Seconds() * 1e3,
		TotalMs:    total.Seconds() * 1e3,
		Conductors: conductorNames(st),
		CFarads:    matrixRows(res.C),
		Warnings:   report.CheckMaxwell(res.C, 0),
	}
}

// SweepHeader is the first NDJSON line of a /sweep response.
type SweepHeader struct {
	JobID   string  `json:"job_id"`
	Mode    string  `json:"mode"` // "variants" | "template"
	Points  int     `json:"points"`
	Backend string  `json:"backend"`
	Precond string  `json:"precond"`
	EdgeM   float64 `json:"edge_m"`
	Tol     float64 `json:"tol"`
}

// SweepFit is the template-mode payload of one point: the fitted
// flat/arch decomposition of extract.FitArch.
type SweepFit struct {
	Flat    float64 `json:"flat"`
	Peak    float64 `json:"peak"`
	PeakPos float64 `json:"peak_pos"`
	Decay   float64 `json:"decay"`
}

// SweepPoint is one NDJSON line of a /sweep response. A solved variant
// point embeds the ExtractResponse of its extraction, as POST /extract
// answers one less the job id; a template point carries its Fit; a failed
// point carries Error and neither — mid-sweep failures surface as
// per-point entries, never dropped points.
type SweepPoint struct {
	Index int `json:"index"`
	// Structure names a variant point's geometry, failed or not; on a
	// solved point it shadows the embedded response's, which holds the
	// same name.
	Structure string `json:"structure,omitempty"`
	// HM carries no omitempty: h=0 is a legitimate contact sweep, and the
	// zero must survive the round trip to capx -remote.
	HM float64 `json:"h_m"`
	*ExtractResponse
	Fit   *SweepFit     `json:"fit,omitempty"`
	Error *RequestError `json:"error,omitempty"`
}

// SweepTrailer is the final NDJSON line of a /sweep response.
type SweepTrailer struct {
	Done    bool    `json:"done"`
	Points  int     `json:"points"`
	Failed  int     `json:"failed"`
	TotalMs float64 `json:"total_ms"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if err := s.admitTenant(r); err != nil {
		writeError(w, err)
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.limits.MaxBodyBytes)
	req, sts, err := s.limits.DecodeSweep(body)
	if err != nil {
		s.c.badRequests.Add(1)
		writeError(w, err)
		return
	}
	j := s.newSweepJob(r.Context(), req, sts)
	if _, err := s.admit(j); err != nil {
		writeError(w, err)
		return
	}

	mode := "variants"
	points := len(sts)
	if len(req.TemplateHs) > 0 {
		mode, points = "template", len(req.TemplateHs)
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	emit := func(v any) {
		enc.Encode(v)
		if flusher != nil {
			flusher.Flush()
		}
	}
	emit(SweepHeader{
		JobID: j.id, Mode: mode, Points: points,
		Backend: requestedName(req.Backend), Precond: requestedName(req.Precond),
		EdgeM: req.EdgeM, Tol: req.Tol,
	})
	for msg := range j.stream {
		emit(msg)
	}
	<-j.done
	if t, ok := j.result.(*SweepTrailer); ok && j.err == nil {
		emit(t)
	} else if j.err != nil {
		// A whole-sweep failure (not a per-point one) ends the stream
		// with an error line in place of the trailer.
		emit(errorEnvelope{Error: asRequestError(j.err)})
	}
}

// runSweep executes an admitted sweep job, emitting one SweepPoint per
// point onto the job's stream. A client disconnect or deadline expiry
// cancels the sweep between points, and variant solves in flight stop
// at the engine's interior checkpoints.
func (s *Server) runSweep(j *job, req *SweepRequest, sts []*geom.Structure) (any, error) {
	t0 := time.Now()
	failed := 0
	emit := func(p *SweepPoint) bool {
		select {
		case j.stream <- p:
		case <-j.ctx.Done():
			return false
		}
		// Count after the send: a point that never reached the stream
		// (client gone, sweep abandoned) must not inflate the
		// delivered-point counters.
		s.c.sweepPoints.Add(1)
		if p.Error != nil {
			failed++
			s.c.sweepPointErrors.Add(1)
		}
		return true
	}
	if len(req.TemplateHs) > 0 {
		s.runTemplateSweep(j, req, emit)
	} else {
		s.runVariantSweep(j, req, sts, emit)
	}
	if err := j.ctx.Err(); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			return nil, &RequestError{
				Code:      CodeDeadlineExceeded,
				Message:   "sweep deadline exceeded",
				ElapsedMs: time.Since(t0).Seconds() * 1e3,
			}
		}
		return nil, &RequestError{Code: CodeCancelled, Message: "client went away mid-sweep"}
	}
	n := len(sts) + len(req.TemplateHs)
	return &SweepTrailer{
		Done: true, Points: n, Failed: failed,
		TotalMs: time.Since(t0).Seconds() * 1e3,
	}, nil
}

// runVariantSweep streams each geometry through the engine's
// family-keyed plan cache; a failing point becomes an error entry and
// the sweep continues.
func (s *Server) runVariantSweep(j *job, req *SweepRequest, sts []*geom.Structure, emit func(*SweepPoint) bool) {
	for i, st := range sts {
		if j.ctx.Err() != nil {
			return
		}
		t0 := time.Now()
		res, err := s.eng.ExtractPipelineCtx(j.ctx, st, req.EdgeM, req.opt)
		if err != nil {
			if j.ctx.Err() != nil {
				// Deadline or disconnect observed inside the solve:
				// the whole sweep is over, not just this point —
				// runSweep reports it in place of the trailer.
				return
			}
			if !emit(&SweepPoint{
				Index: i, Structure: st.Name,
				Error: &RequestError{Code: CodePointFailed, Message: err.Error()},
			}) {
				return
			}
			continue
		}
		total := time.Since(t0)
		s.m.observeStages(res.Backend.String(), res.Stages, total)
		out := NewExtractResponse(st, res, req.Backend, req.Precond, req.EdgeM, req.Tol, total)
		out.Reused = ReusedName(res.Reused)
		if !emit(&SweepPoint{Index: i, Structure: st.Name, ExtractResponse: out}) {
			return
		}
	}
}

// runTemplateSweep runs the template-extraction h-sweep of the
// elementary crossing pair. extract.SweepH keeps healthy points on a
// mid-sweep failure and returns each failed point's error at its index;
// here, at the service edge, each failure becomes that point's error
// entry in the stream.
func (s *Server) runTemplateSweep(j *job, req *SweepRequest, emit func(*SweepPoint) bool) {
	// The points and their plans' stage builds run on the engine's
	// budgeted executor, like a pipeline job's, and observe the job's
	// deadline and cancellation at every stage boundary and iteration.
	hs := req.TemplateHs
	fits, errs := s.sweepH(j.ctx, s.eng.PlanExec(), geom.DefaultCrossingPair(), hs, req.EdgeM)
	if j.ctx.Err() != nil {
		// The whole sweep is over, not its points one by one: runSweep
		// reports the deadline or disconnect in place of the trailer.
		return
	}
	for i, h := range hs {
		p := &SweepPoint{Index: i, HM: h}
		switch {
		case i < len(fits) && fits[i] != nil:
			p.Fit = &SweepFit{
				Flat: fits[i].Flat, Peak: fits[i].Peak,
				PeakPos: fits[i].PeakPos, Decay: fits[i].Decay,
			}
		case i < len(errs) && errs[i] != nil:
			p.Error = &RequestError{Code: CodePointFailed, Message: errs[i].Error()}
		default:
			p.Error = &RequestError{Code: CodePointFailed, Message: "point produced no fit"}
		}
		if !emit(p) {
			return
		}
	}
}

// requestedName normalizes an empty selector to "auto" for telemetry.
func requestedName(s string) string {
	if s == "" {
		return "auto"
	}
	return s
}

// ReusedName renders plan stage reuse, for the wire and for capx -sweep.
func ReusedName(r plan.StageReuse) string {
	switch {
	case r.NearField && r.Factorization:
		return "near-field+factors"
	case r.NearField:
		return "near-field"
	case r.Factorization:
		return "factors"
	}
	return "none"
}

// conductorNames lists the structure's conductor names.
func conductorNames(st *geom.Structure) []string {
	names := make([]string, len(st.Conductors))
	for i, c := range st.Conductors {
		names[i] = c.Name
	}
	return names
}

// matrixRows flattens a capacitance matrix for JSON output (the
// c_farads field of capx -json).
func matrixRows(c *linalg.Dense) [][]float64 {
	rows := make([][]float64, c.Rows)
	for i := range rows {
		rows[i] = append([]float64(nil), c.Row(i)...)
	}
	return rows
}
