package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"parbem/internal/extract"
	"parbem/internal/geom"
	"parbem/internal/geomio"
	"parbem/internal/op"
	"parbem/internal/plan"
	"parbem/internal/sched"
)

// geoText serializes a structure to the wire format.
func geoText(t testing.TB, st *geom.Structure) string {
	t.Helper()
	var sb strings.Builder
	if err := geomio.Write(&sb, st, 0); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// crossingAt builds a crossing-pair variant at separation h.
func crossingAt(h float64) *geom.Structure {
	sp := geom.DefaultCrossingPair()
	sp.H = h
	return sp.Build()
}

// capError is the conventional relative matrix error (parbem.CapError).
func capError(got, ref [][]float64) float64 {
	var maxRel float64
	for i := range ref {
		den := ref[i][i]
		if den < 0 {
			den = -den
		}
		for j := range ref[i] {
			d := got[i][j] - ref[i][j]
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

// openServer is Open for a test, which fails on its error.
func openServer(t testing.TB, opt Options) *Server {
	t.Helper()
	s, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// denseRows flattens a linalg matrix result for comparison.
func denseRows(rows [][]float64) [][]float64 { return rows }

// startServer spins up a Server over httptest and returns a client.
func startServer(t testing.TB, opt Options) (*Server, *Client) {
	t.Helper()
	s := openServer(t, opt)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, NewClient(hs.URL)
}

func TestServeExtractAndJobs(t *testing.T) {
	s, c := startServer(t, Options{Workers: 2})
	ctx := context.Background()

	if err := c.Health(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}

	st := crossingAt(geom.DefaultCrossingPair().H)
	const edge = 0.5e-6
	req := &ExtractRequest{Geometry: geoText(t, st), EdgeM: edge, Backend: "dense"}
	res, err := c.Extract(ctx, req)
	if err != nil {
		t.Fatalf("extract: %v", err)
	}
	if res.Backend != "dense" || res.NumPanels == 0 || len(res.CFarads) != 2 {
		t.Fatalf("bad response: backend %q, %d panels, %d rows",
			res.Backend, res.NumPanels, len(res.CFarads))
	}
	if res.JobID == "" {
		t.Error("response carries no job id")
	}

	// The service must agree with a fresh one-variant plan.
	ref := freshPlan(t, st, edge, op.Options{Backend: op.BackendDense, Direct: true})
	refRows := make([][]float64, ref.C.Rows)
	for i := range refRows {
		refRows[i] = ref.C.Row(i)
	}
	if e := capError(res.CFarads, refRows); e > 1e-10 {
		t.Errorf("served result deviates from a fresh dense plan by %.3g (tol 1e-10)", e)
	}

	// Async submission round-trips through GET /jobs/{id}.
	id, err := c.ExtractAsync(ctx, req)
	if err != nil {
		t.Fatalf("async extract: %v", err)
	}
	var jr *JobResponse
	for deadline := time.Now().Add(30 * time.Second); ; {
		jr, err = c.Job(ctx, id)
		if err != nil {
			t.Fatalf("job %s: %v", id, err)
		}
		if jr.Status == "done" || jr.Status == "failed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, jr.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if jr.Status != "done" || jr.Result == nil {
		t.Fatalf("async job: status %s, result %v, err %v", jr.Status, jr.Result, jr.Error)
	}
	if e := capError(jr.Result.CFarads, refRows); e > 1e-10 {
		t.Errorf("async result deviates by %.3g", e)
	}
	if _, err := c.Job(ctx, "j999999"); err == nil {
		t.Error("unknown job id did not 404")
	} else if re := new(RequestError); !errors.As(err, &re) || re.Code != CodeNotFound {
		t.Errorf("unknown job error = %v, want not_found", err)
	}

	stats := s.Stats()
	if stats.Accepted != 2 || stats.Completed != 2 || stats.Failed != 0 {
		t.Errorf("stats: %d accepted, %d completed, %d failed; want 2/2/0",
			stats.Accepted, stats.Completed, stats.Failed)
	}
}

// TestServeWarmCacheSpeedup is the acceptance criterion of the service
// layer: identical-family requests against a warm capxd share the plan
// cache across HTTP requests, so the 2nd..Nth variant is built from the
// first one's stages — block factors adopted, dense entries copied, solves
// warm-started and shorter — while agreeing with one-shot ExtractPipeline
// solves to < 1e-10. An fmm variant builds its near field as a fresh build
// does, from the class table, so it reports "factors"; a dense variant
// copies its rigidly moved entries and reports "near-field+factors". The
// speedup is asserted as the work that is not done, in counts that repeat
// exactly on any host (how many classes a variant integrates is
// TestSweepIncrementalSpeedup's to pin, on the same plans); what it comes
// to in milliseconds is the benchmark's serve.cold_ms against
// serve.variant_ms.
func TestServeWarmCacheSpeedup(t *testing.T) {
	const edge = 0.25e-6
	hs := []float64{0.35e-6, 0.40e-6, 0.45e-6, 0.50e-6}
	s, c := startServer(t, Options{Workers: 2})
	ctx := context.Background()
	for _, leg := range []struct {
		backend string
		popt    op.Options
		want    string
	}{
		// Tight tolerance so plan warm starts are invisible next to the
		// 1e-10 agreement bound (the TestSweepIncrementalSpeedup setup).
		{"fastcap", op.Options{Backend: op.BackendFMM, Tol: 1e-12}, "factors"},
		{"dense", op.Options{Backend: op.BackendDense, Tol: 1e-12}, "near-field+factors"},
	} {
		cold := s.Stats().Engine
		served := make([]*ExtractResponse, len(hs))
		for i, h := range hs {
			res, err := c.Extract(ctx, &ExtractRequest{
				Geometry: geoText(t, crossingAt(h)),
				EdgeM:    edge, Backend: leg.backend, Precond: "block", Tol: 1e-12,
			})
			if err != nil {
				t.Fatalf("%s, h=%g: %v", leg.backend, h, err)
			}
			served[i] = res
		}

		// Every served matrix agrees with a fresh one-variant plan, and
		// every variant after the first took fewer iterations than it.
		for i, h := range hs {
			ref := freshPlan(t, crossingAt(h), edge, leg.popt)
			refRows := make([][]float64, ref.C.Rows)
			for r := range refRows {
				refRows[r] = ref.C.Row(r)
			}
			if e := capError(served[i].CFarads, refRows); e > 1e-10 {
				t.Errorf("%s, h=%g: served deviates from a fresh plan by %.3g (tol 1e-10)", leg.backend, h, e)
			}
			if i == 0 {
				if served[i].Reused != "none" {
					t.Errorf("%s: first request of the family reused %q", leg.backend, served[i].Reused)
				}
				continue
			}
			if served[i].Reused != leg.want {
				t.Errorf("%s, h=%g: reused %q, want %q", leg.backend, h, served[i].Reused, leg.want)
			}
			if served[i].Iterations >= ref.Iterations {
				t.Errorf("%s, h=%g: %d iterations from a warm start, cold %d", leg.backend, h, served[i].Iterations, ref.Iterations)
			}
		}

		// One plan was built for the family and found again by every
		// later request.
		if st := s.Stats().Engine; st.StateMisses-cold.StateMisses != 1 || st.StateHits-cold.StateHits != uint64(len(hs)-1) {
			t.Errorf("%s: engine state lookups over %d requests: %d misses, %d hits; want 1 and %d",
				leg.backend, len(hs), st.StateMisses-cold.StateMisses, st.StateHits-cold.StateHits, len(hs)-1)
		}
	}
}

// TestServeSweepVariants streams a variant sweep and checks the
// family-plan reuse markers and per-point payloads.
func TestServeSweepVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("several extractions")
	}
	_, c := startServer(t, Options{Workers: 2})
	hs := []float64{0.4e-6, 0.5e-6, 0.6e-6}
	req := &SweepRequest{EdgeM: 0.5e-6, Backend: "fastcap", Precond: "block"}
	for _, h := range hs {
		req.Variants = append(req.Variants, geoText(t, crossingAt(h)))
	}
	var pts []*SweepPoint
	tr, err := c.Sweep(context.Background(), req, func(p *SweepPoint) { pts = append(pts, p) })
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if tr.Points != len(hs) || tr.Failed != 0 {
		t.Fatalf("trailer: %+v", tr)
	}
	if len(pts) != len(hs) {
		t.Fatalf("streamed %d points, want %d", len(pts), len(hs))
	}
	for i, p := range pts {
		if p.Index != i || p.Error != nil || len(p.CFarads) != 2 {
			t.Errorf("point %d: %+v", i, p)
		}
	}
	for _, p := range pts[1:] {
		if p.Reused == "none" {
			t.Errorf("warm point %d reused nothing (family plan not shared)", p.Index)
		}
	}
}

// freshPlan extracts st on a throwaway one-variant plan: what a served
// result — cached, reused or warm-started — is compared against.
func freshPlan(t *testing.T, st *geom.Structure, edge float64, popt op.Options) *plan.Result {
	t.Helper()
	pl, err := plan.New(plan.Options{MaxEdge: edge, Pipeline: popt})
	if err != nil {
		t.Fatal(err)
	}
	res, err := pl.Extract(st)
	if err != nil {
		t.Fatalf("fresh plan: %v", err)
	}
	return res
}

// TestServeSweepWorkerBudget pins that a template sweep is handed the
// engine's budgeted executor rather than fanning out machine-wide: at a
// budget of one worker, Map runs its tasks one at a time.
func TestServeSweepWorkerBudget(t *testing.T) {
	s, c := startServer(t, Options{Workers: 2, WorkerBudget: 1})
	var running, widest atomic.Int32
	s.sweepH = func(_ context.Context, ex sched.Executor, _ geom.CrossingPairSpec, in []float64, _ float64) ([]*extract.ArchFit, []error) {
		ex.Map(8, func(int) {
			if n := running.Add(1); n > widest.Load() {
				widest.Store(n)
			}
			time.Sleep(time.Millisecond)
			running.Add(-1)
		})
		fits := make([]*extract.ArchFit, len(in))
		for i := range fits {
			fits[i] = &extract.ArchFit{Flat: 1, Peak: 2, Decay: 1e-7}
		}
		return fits, nil
	}
	_, err := c.Sweep(context.Background(),
		&SweepRequest{EdgeM: 0.5e-6, TemplateHs: []float64{0.4e-6}},
		func(*SweepPoint) {})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if got := widest.Load(); got != 1 {
		t.Fatalf("template sweep's executor ran %d tasks at once, want the budget 1", got)
	}
}

// TestServeSweepTemplatePointError pins the service edge of
// extract.SweepH partial failures: a mid-sweep point error surfaces as
// that point's error entry in the streamed JSON — at its index and h —
// while the healthy points still stream their fits. No dropped points.
func TestServeSweepTemplatePointError(t *testing.T) {
	s, c := startServer(t, Options{Workers: 2})
	hs := []float64{0.4e-6, 0.5e-6, 0.6e-6}
	// Inject the exact failure shape SweepH produces when a point dies
	// mid-sweep: fits[i] nil and errs[i] set for the failed point.
	s.sweepH = func(_ context.Context, _ sched.Executor, _ geom.CrossingPairSpec, in []float64, _ float64) ([]*extract.ArchFit, []error) {
		fits := make([]*extract.ArchFit, len(in))
		errs := make([]error, len(in))
		for i := range in {
			if i == 1 {
				errs[i] = errors.New("injected mid-sweep failure")
				continue
			}
			fits[i] = &extract.ArchFit{Flat: 1 + float64(i), Peak: 2, PeakPos: 0, Decay: 1e-7}
		}
		return fits, errs
	}

	var pts []*SweepPoint
	tr, err := c.Sweep(context.Background(), &SweepRequest{EdgeM: 0.5e-6, TemplateHs: hs},
		func(p *SweepPoint) { pts = append(pts, p) })
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if len(pts) != len(hs) {
		t.Fatalf("streamed %d points, want %d — the failed point must not be dropped", len(pts), len(hs))
	}
	if tr.Failed != 1 || tr.Points != len(hs) {
		t.Errorf("trailer: %+v, want 3 points 1 failed", tr)
	}
	for i, p := range pts {
		if p.Index != i || p.HM != hs[i] {
			t.Errorf("point %d: index %d h %g, want h %g", i, p.Index, p.HM, hs[i])
		}
	}
	if pts[0].Fit == nil || pts[2].Fit == nil {
		t.Error("healthy points lost their fits")
	}
	if pts[1].Error == nil || pts[1].Error.Code != CodePointFailed {
		t.Errorf("failed point streamed %+v, want a point_failed error entry", pts[1])
	}
	if pts[1].Fit != nil {
		t.Error("failed point carries a fit")
	}
	if !strings.Contains(pts[1].Error.Message, "injected mid-sweep failure") {
		t.Errorf("error entry lost the cause: %q", pts[1].Error.Message)
	}
}

// TestServeTemplateSweepEndToEnd runs a real (uninjected) template
// sweep through the HTTP boundary.
func TestServeTemplateSweepEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("solves crossing problems")
	}
	_, c := startServer(t, Options{Workers: 2})
	hs := []float64{0.4e-6, 0.6e-6}
	var pts []*SweepPoint
	tr, err := c.Sweep(context.Background(), &SweepRequest{EdgeM: 0.5e-6, TemplateHs: hs},
		func(p *SweepPoint) { pts = append(pts, p) })
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if tr.Failed != 0 || len(pts) != 2 {
		t.Fatalf("trailer %+v, %d points", tr, len(pts))
	}
	for i, p := range pts {
		if p.Fit == nil {
			t.Fatalf("point %d has no fit: %+v", i, p)
		}
		if p.Fit.Flat == 0 || p.Fit.Peak == 0 {
			t.Errorf("point %d fit degenerate: %+v", i, p.Fit)
		}
	}
	// Closer wires induce a stronger arch: |b(h)| decreases with h.
	if math.Abs(pts[0].Fit.Peak) <= math.Abs(pts[1].Fit.Peak) {
		t.Errorf("|b(h)| not decreasing: %g at h=%g vs %g at h=%g",
			pts[0].Fit.Peak, hs[0], pts[1].Fit.Peak, hs[1])
	}
}

// TestServeAdmissionControl fills the queue and expects structured
// queue_full rejections rather than unbounded backlog.
func TestServeAdmissionControl(t *testing.T) {
	s, c := startServer(t, Options{Workers: 1, QueueDepth: 1, Runners: 1})
	ctx := context.Background()

	// Occupy the single runner with a blocking job, then fill the
	// depth-1 queue so the next request must be rejected.
	started := make(chan struct{})
	block := make(chan struct{})
	slow := &job{kind: "extract", done: make(chan struct{})}
	slow.run = func() (any, error) { close(started); <-block; return nil, fmt.Errorf("cancelled") }
	if _, err := s.admit(slow); err != nil {
		t.Fatal(err)
	}
	<-started
	filler := &job{kind: "extract", done: make(chan struct{})}
	filler.run = func() (any, error) { return nil, fmt.Errorf("cancelled") }
	if _, err := s.admit(filler); err != nil {
		t.Fatalf("queue slot should be free: %v", err)
	}

	_, err := c.Extract(ctx, &ExtractRequest{
		Geometry: geoText(t, crossingAt(0.5e-6)), EdgeM: 0.5e-6, Backend: "dense",
	})
	re := new(RequestError)
	if !errors.As(err, &re) || re.Code != CodeQueueFull {
		t.Errorf("full queue returned %v, want queue_full", err)
	}
	if s.Stats().RejectedQueueFull == 0 {
		t.Error("rejection not counted")
	}
	close(block)
}

// TestServeBadRequests checks the structured-rejection boundary over
// real HTTP for the malformed shapes the fuzzer explores.
func TestServeBadRequests(t *testing.T) {
	s, c := startServer(t, Options{Workers: 1})
	cases := []struct {
		name string
		req  *ExtractRequest
	}{
		{"empty geometry", &ExtractRequest{EdgeM: 1e-6}},
		{"bad geometry text", &ExtractRequest{Geometry: "box 1 2 3", EdgeM: 1e-6}},
		{"zero edge", &ExtractRequest{Geometry: "conductor a\nbox 0 0 0 1 1 1", EdgeM: 0}},
		{"zero-area box", &ExtractRequest{Geometry: "conductor a\nbox 0 0 0 1 1 0", EdgeM: 1e-6}},
		{"nan coordinate", &ExtractRequest{Geometry: "conductor a\nbox nan 0 0 1 1 1", EdgeM: 1e-6}},
		{"huge panel count", &ExtractRequest{Geometry: "conductor a\nbox 0 0 0 1000 1000 1000", EdgeM: 1e-9}},
		{"bad backend", &ExtractRequest{Geometry: "conductor a\nbox 0 0 0 1 1 1", EdgeM: 1e-6, Backend: "cuda"}},
		{"bad tol", &ExtractRequest{Geometry: "conductor a\nbox 0 0 0 1 1 1", EdgeM: 1e-6, Tol: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := c.Extract(context.Background(), tc.req)
			re := new(RequestError)
			if !errors.As(err, &re) || re.Code != CodeBadRequest {
				t.Errorf("got %v, want a bad_request rejection", err)
			}
		})
	}
	if got := s.Stats().BadRequests; got != uint64(len(cases)) {
		t.Errorf("bad request counter %d, want %d", got, len(cases))
	}
	if got := s.Stats().Accepted; got != 0 {
		t.Errorf("rejected requests were admitted: %d", got)
	}
}

// TestServeCancelledQueuedJobSkipped pins the dead-client behavior: a
// synchronous job whose requester disconnects while it is still queued
// is skipped when popped (retired as cancelled, not failed) instead
// of burning pool workers on a result nobody will read.
func TestServeCancelledQueuedJobSkipped(t *testing.T) {
	s, c := startServer(t, Options{Workers: 1, QueueDepth: 4, Runners: 1})

	// Occupy the single runner so the next request queues.
	started := make(chan struct{})
	block := make(chan struct{})
	blocker := &job{kind: "extract", done: make(chan struct{})}
	blocker.run = func() (any, error) { close(started); <-block; return nil, fmt.Errorf("done") }
	if _, err := s.admit(blocker); err != nil {
		t.Fatal(err)
	}
	<-started

	// Queue a job whose context is already cancelled (the deterministic
	// equivalent of a client that hung up while queued — server-side
	// context propagation from a real disconnect is asynchronous).
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// A job's request carries the options its decode derives.
	deadOpt, err := PipelineOptions("dense", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	dead := s.newExtractJob(ctx, &ExtractRequest{EdgeM: 0.5e-6, Backend: "dense", opt: deadOpt}, crossingAt(0.5e-6))
	if _, err := s.admit(dead); err != nil {
		t.Fatal(err)
	}

	// A live HTTP client cancelling mid-queue gets an error promptly
	// instead of waiting out the queue.
	hctx, hcancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := c.Extract(hctx, &ExtractRequest{
			Geometry: geoText(t, crossingAt(0.5e-6)), EdgeM: 0.5e-6, Backend: "dense",
		})
		errCh <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); s.Stats().Queued < 2; {
		if time.Now().After(deadline) {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	hcancel()
	if err := <-errCh; err == nil {
		t.Fatal("cancelled client got a response")
	}
	close(block)

	// The dead job must be retired as cancelled without running.
	<-dead.done
	if got := jobState(dead.state.Load()); got != jobCancelled {
		t.Errorf("dead job state %v, want cancelled", got)
	}
	re, ok := dead.err.(*RequestError)
	if !ok || re.Code != CodeCancelled {
		t.Errorf("dead job error %v, want code cancelled", dead.err)
	}
	if dead.result != nil {
		t.Error("dead job produced a result")
	}
	// The solver may legitimately have run once for the live client's
	// job (its cancellation is asynchronous), but never for dead.
	var st Stats
	for deadline := time.Now().Add(5 * time.Second); ; {
		st = s.Stats()
		if st.Completed+st.Failed+st.Cancelled == st.Accepted {
			if st.Extracts > 2 {
				t.Errorf("%d solver runs for 1 live + 1 blocker + 1 dead job", st.Extracts)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs never drained: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	// Client-gone jobs book as cancelled, not failed: the blocker's
	// injected error is the only legitimate failure, and the dead job
	// plus (depending on timing) the live client's land in cancelled.
	if st.Failed != 1 {
		t.Errorf("failed = %d, want 1 (the blocker)", st.Failed)
	}
	if st.Cancelled < 1 {
		t.Errorf("cancelled = %d, want >= 1 (the dead job)", st.Cancelled)
	}
}

// TestServePanicContainment pins the runner's panic recovery: a panic
// deep in the solver stack fails that one job with internal_error, and
// the daemon keeps serving.
func TestServePanicContainment(t *testing.T) {
	s, c := startServer(t, Options{Workers: 1})
	s.sweepH = func(context.Context, sched.Executor, geom.CrossingPairSpec, []float64, float64) ([]*extract.ArchFit, []error) {
		panic("injected solver panic")
	}
	_, err := c.Sweep(context.Background(),
		&SweepRequest{EdgeM: 0.5e-6, TemplateHs: []float64{0.4e-6}}, nil)
	re := new(RequestError)
	if !errors.As(err, &re) || re.Code != CodeInternal {
		t.Fatalf("panicked sweep returned %v, want internal_error", err)
	}
	// The server must still be alive and serving.
	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("server dead after contained panic: %v", err)
	}
	res, err := c.Extract(context.Background(), &ExtractRequest{
		Geometry: geoText(t, crossingAt(0.5e-6)), EdgeM: 0.5e-6, Backend: "dense",
	})
	if err != nil || len(res.CFarads) != 2 {
		t.Fatalf("extraction after contained panic: %v", err)
	}
	st := s.Stats()
	if st.Failed != 1 || st.Completed != 1 {
		t.Errorf("stats after panic: failed %d completed %d, want 1/1", st.Failed, st.Completed)
	}
}

// wireObjects posts body to path and returns the JSON objects of the
// response, one per NDJSON line (one for /extract).
func wireObjects(t *testing.T, c *Client, path string, body any) []map[string]json.RawMessage {
	t.Helper()
	resp, err := c.post(context.Background(), path, body)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	defer resp.Body.Close()
	var out []map[string]json.RawMessage
	dec := json.NewDecoder(resp.Body)
	for {
		var m map[string]json.RawMessage
		if err := dec.Decode(&m); err == io.EOF {
			return out
		} else if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out = append(out, m)
	}
}

// keysOf lists an object's keys in order, less maxwell_warnings, which
// is present only on a matrix that breaks the Maxwell structure.
func keysOf(m map[string]json.RawMessage) []string {
	var ks []string
	for k := range m {
		if k != "maxwell_warnings" {
			ks = append(ks, k)
		}
	}
	slices.Sort(ks)
	return ks
}

// TestWireKeys pins the JSON keys of /extract and of every kind of sweep
// point. A solved variant point is the point fields around the
// ExtractResponse of its extraction: every key a variant point held
// before it embedded one, with its value, plus the response's. A failed
// point and a template point hold no extraction, so they carry no
// iterations or total_ms.
func TestWireKeys(t *testing.T) {
	s, c := startServer(t, Options{Workers: 2})
	const edge = 1e-6
	sorted := func(ks ...string) []string { slices.Sort(ks); return ks }
	extractKeys := []string{"structure", "backend", "requested", "precond", "precision", "num_panels",
		"edge_m", "tol", "iterations", "reused", "setup_ms", "solve_ms", "total_ms", "conductors", "c_farads"}

	ex := wireObjects(t, c, "/extract", &ExtractRequest{Geometry: geoText(t, crossingAt(0.5e-6)), EdgeM: edge, Backend: "dense"})
	if len(ex) != 1 {
		t.Fatalf("/extract answered %d objects", len(ex))
	}
	if got, want := keysOf(ex[0]), sorted(append([]string{"job_id"}, extractKeys...)...); !slices.Equal(got, want) {
		t.Errorf("/extract keys %v, want %v", got, want)
	}

	req := &SweepRequest{EdgeM: edge, Backend: "dense"}
	for _, h := range []float64{0.5e-6, 0.6e-6} {
		req.Variants = append(req.Variants, geoText(t, crossingAt(h)))
	}
	lines := wireObjects(t, c, "/sweep", req)
	if len(lines) != 4 {
		t.Fatalf("variant sweep streamed %d lines, want header, 2 points, trailer", len(lines))
	}
	want := sorted(append([]string{"index", "h_m"}, extractKeys...)...)
	for i, p := range lines[1:3] {
		if got := keysOf(p); !slices.Equal(got, want) {
			t.Errorf("variant point %d keys %v, want %v", i, got, want)
		}
		for k, v := range map[string]string{"index": fmt.Sprint(i), "structure": `"crossing-pair"`, "h_m": "0",
			"backend": `"dense"`, "iterations": "0"} {
			if string(p[k]) != v {
				t.Errorf("variant point %d: %s = %s, want %s", i, k, p[k], v)
			}
		}
	}
	if string(lines[2]["reused"]) == `"none"` {
		t.Error("the warm variant point reused nothing")
	}

	// A variant that fails is an error entry; no admissible geometry makes
	// one, so the point is encoded as runVariantSweep builds it.
	buf, err := json.Marshal(&SweepPoint{Index: 1, Structure: "crossing",
		Error: &RequestError{Code: CodePointFailed, Message: "failed"}})
	if err != nil {
		t.Fatal(err)
	}
	var failed map[string]json.RawMessage
	if err := json.Unmarshal(buf, &failed); err != nil {
		t.Fatal(err)
	}
	if got, want := keysOf(failed), sorted("index", "structure", "h_m", "error"); !slices.Equal(got, want) {
		t.Errorf("failed variant point keys %v, want %v", got, want)
	}

	s.sweepH = func(_ context.Context, _ sched.Executor, _ geom.CrossingPairSpec, in []float64, _ float64) ([]*extract.ArchFit, []error) {
		return []*extract.ArchFit{{Flat: 1, Peak: 2, Decay: 1e-7}, nil}, []error{nil, errors.New("injected")}
	}
	lines = wireObjects(t, c, "/sweep", &SweepRequest{EdgeM: edge, TemplateHs: []float64{0.4e-6, 0.5e-6}})
	if len(lines) != 4 {
		t.Fatalf("template sweep streamed %d lines, want header, 2 points, trailer", len(lines))
	}
	if got, want := keysOf(lines[1]), sorted("index", "h_m", "fit"); !slices.Equal(got, want) {
		t.Errorf("template point keys %v, want %v", got, want)
	}
	if got, want := keysOf(lines[2]), sorted("index", "h_m", "error"); !slices.Equal(got, want) {
		t.Errorf("failed template point keys %v, want %v", got, want)
	}
}
