package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"parbem/internal/batch"
	"parbem/internal/extract"
	"parbem/internal/geom"
	"parbem/internal/sched"
)

// TestServeDeadline504 pins the end-to-end deadline path: a synchronous
// /extract whose timeout_ms is far below the solve time returns a
// structured deadline_exceeded error (HTTP 504 → *RequestError at the
// client) carrying partial telemetry, and it returns well before the
// undeadlined solve would have — the deadline is observed inside the
// pipeline (stage checkpoints and the GMRES iteration loop), not after
// the solve completed.
func TestServeDeadline504(t *testing.T) {
	if testing.Short() {
		t.Skip("deadline timing test")
	}
	_, c := startServer(t, Options{Workers: 2})
	ctx := context.Background()

	const edge = 0.35e-6
	base := &ExtractRequest{
		Geometry: geoText(t, crossingAt(0.5e-6)), EdgeM: edge,
		Backend: "fastcap", Precond: "block", Tol: 1e-7,
	}
	t0 := time.Now()
	if _, err := c.Extract(ctx, base); err != nil {
		t.Fatalf("baseline extract: %v", err)
	}
	full := time.Since(t0)

	// A family variant (plan reuse leaves mostly solve work) with a
	// deadline a fraction of the full time.
	vreq := &ExtractRequest{
		Geometry: geoText(t, crossingAt(0.52e-6)), EdgeM: edge,
		Backend: "fastcap", Precond: "block", Tol: 1e-7,
		TimeoutMs: 10,
	}
	t0 = time.Now()
	_, err := c.Extract(ctx, vreq)
	elapsed := time.Since(t0)
	re := new(RequestError)
	if !errors.As(err, &re) || re.Code != CodeDeadlineExceeded {
		t.Fatalf("deadlined extract returned %v, want code deadline_exceeded", err)
	}
	if re.Stage == "" {
		t.Error("deadline_exceeded error carries no stage telemetry")
	}
	if re.ElapsedMs <= 0 {
		t.Errorf("deadline_exceeded error elapsed_ms = %v, want > 0", re.ElapsedMs)
	}
	// The early exit must beat the undeadlined time by a clear margin.
	// Stage builds are interruptible only at stage boundaries, so the
	// deadlined request may still finish the stage in flight (the
	// per-iteration GMRES checkpoint is pinned deterministically in
	// internal/linalg); only assert when the baseline is slow enough for
	// the margin to be meaningful on a noisy machine.
	if full >= 100*time.Millisecond && elapsed > full*3/4 {
		t.Errorf("deadlined extract took %v, want well under the undeadlined %v", elapsed, full)
	}
}

// TestServePriorityOrdering pins the two-tier admission queue: with one
// runner and a backlog of both classes, every queued interactive job
// runs before the first bulk job, regardless of arrival order.
func TestServePriorityOrdering(t *testing.T) {
	s, _ := startServer(t, Options{Workers: 1, Runners: 1, QueueDepth: 8})

	started := make(chan struct{})
	release := make(chan struct{})
	blocker := &job{kind: "extract", class: classInteractive, done: make(chan struct{})}
	blocker.run = func() (any, error) { close(started); <-release; return nil, nil }
	if _, err := s.admit(blocker); err != nil {
		t.Fatal(err)
	}
	<-started

	order := make(chan string, 8)
	mk := func(name string, class int) *job {
		j := &job{kind: "test", class: class, done: make(chan struct{})}
		j.run = func() (any, error) { order <- name; return nil, nil }
		return j
	}
	// Bulk jobs are enqueued FIRST; interactive must still win.
	jobs := []*job{mk("bulk1", classBulk), mk("bulk2", classBulk),
		mk("hi1", classInteractive), mk("hi2", classInteractive)}
	for _, j := range jobs {
		if _, err := s.admit(j); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	for _, j := range jobs {
		<-j.done
	}
	var got []string
	for range jobs {
		got = append(got, <-order)
	}
	want := []string{"hi1", "hi2", "bulk1", "bulk2"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("run order %v, want %v (interactive-first)", got, want)
	}
}

// TestServeTenantRateLimit pins the per-tenant token bucket at the
// HTTP edge: a tenant over its burst is rejected with a structured
// rate_limited 429 while another tenant's bucket is untouched.
func TestServeTenantRateLimit(t *testing.T) {
	s, c := startServer(t, Options{Workers: 1, TenantRate: 0.001, TenantBurst: 2})
	ctx := context.Background()
	req := &ExtractRequest{Geometry: geoText(t, crossingAt(0.5e-6)), EdgeM: 0.5e-6, Backend: "dense"}

	c.Tenant = "alice"
	for i := 0; i < 2; i++ {
		if _, err := c.Extract(ctx, req); err != nil {
			t.Fatalf("request %d within burst rejected: %v", i, err)
		}
	}
	_, err := c.Extract(ctx, req)
	re := new(RequestError)
	if !errors.As(err, &re) || re.Code != CodeRateLimited {
		t.Fatalf("over-burst request returned %v, want code rate_limited", err)
	}
	if got := s.Stats().RejectedRateLimited; got != 1 {
		t.Errorf("jobs_rejected_rate_limited = %d, want 1", got)
	}

	// Another tenant has its own bucket.
	c2 := *c
	c2.Tenant = "bob"
	if _, err := c2.Extract(ctx, req); err != nil {
		t.Fatalf("fresh tenant rejected: %v", err)
	}
}

// TestTenantLimiter pins the token-bucket math — and the Retry-After
// advice computed from the refill rate — with synthetic clocks.
func TestTenantLimiter(t *testing.T) {
	l := newTenantLimiter(2, 2) // 2 req/s, burst 2
	t0 := time.Unix(1000, 0)
	ok1, _ := l.allow("a", t0)
	ok2, _ := l.allow("a", t0)
	if !ok1 || !ok2 {
		t.Fatal("burst of 2 rejected")
	}
	if ok, wait := l.allow("a", t0); ok {
		t.Fatal("third immediate request admitted over burst")
	} else if wait != 500*time.Millisecond {
		// Empty bucket at 2 tokens/s: one token refills in 500ms.
		t.Fatalf("retry-after = %v, want 500ms", wait)
	}
	if ok, _ := l.allow("b", t0); !ok {
		t.Fatal("separate tenant shares a bucket")
	}
	// After 500ms one token (rate 2/s) has refilled.
	if ok, _ := l.allow("a", t0.Add(500*time.Millisecond)); !ok {
		t.Fatal("refilled token rejected")
	}
	if ok, wait := l.allow("a", t0.Add(500*time.Millisecond)); ok {
		t.Fatal("second token admitted before it refilled")
	} else if wait != 500*time.Millisecond {
		t.Fatalf("retry-after = %v, want 500ms", wait)
	}
}

// TestServeSweepPointsCountDelivered pins the delivered-points
// accounting: a sweep abandoned mid-stream (client gone) counts
// exactly the points that reached the stream — never points it failed
// to deliver — and the job books as cancelled, keeping
// accepted == completed + failed + cancelled.
func TestServeSweepPointsCountDelivered(t *testing.T) {
	s, _ := startServer(t, Options{Workers: 1})

	// 24 template points against a 16-slot stream nobody drains: the
	// sweep must stop at the full buffer once the context fires, and
	// the counter must match what actually entered the stream.
	hs := make([]float64, 24)
	for i := range hs {
		hs[i] = 0.4e-6 + float64(i)*1e-9
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.sweepH = func(_ context.Context, _ sched.Executor, _ geom.CrossingPairSpec, hs []float64, _ float64) ([]*extract.ArchFit, []error) {
		// The client vanishes while the solver is running; every point
		// emitted afterwards races delivery against the dead context.
		cancel()
		fits := make([]*extract.ArchFit, len(hs))
		for i := range fits {
			fits[i] = &extract.ArchFit{Flat: 1, Peak: 1, PeakPos: 1, Decay: 1}
		}
		return fits, nil
	}
	j := s.newSweepJob(ctx, &SweepRequest{EdgeM: 0.5e-6, TemplateHs: hs}, nil)
	if _, err := s.admit(j); err != nil {
		t.Fatal(err)
	}
	<-j.done

	delivered := 0
	for range j.stream {
		delivered++
	}
	st := s.Stats()
	if st.SweepPoints != uint64(delivered) {
		t.Errorf("sweep_points = %d but %d points were delivered to the stream", st.SweepPoints, delivered)
	}
	if jobState(j.state.Load()) != jobCancelled {
		t.Errorf("abandoned sweep state %v, want cancelled", jobState(j.state.Load()))
	}
	if st.Cancelled != 1 || st.Completed != 0 || st.Failed != 0 {
		t.Errorf("counters completed/failed/cancelled = %d/%d/%d, want 0/0/1",
			st.Completed, st.Failed, st.Cancelled)
	}
	if st.Accepted != st.Completed+st.Failed+st.Cancelled {
		t.Errorf("accepted %d != completed %d + failed %d + cancelled %d",
			st.Accepted, st.Completed, st.Failed, st.Cancelled)
	}
}

// promLine matches one exposition sample: name{labels} value.
var promLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (.+)$`)

// TestServeTemplateSweepDeadline pins that a template sweep runs under
// its job's deadline. The sweep is handed the job's context; once that
// is done its points fail fast (extract's TestSweepHCancelled pins that
// no near field is integrated), and the stream ends in a
// deadline_exceeded line — not in per-point failures and a trailer, and
// not after every remaining point has been solved for nobody.
func TestServeTemplateSweepDeadline(t *testing.T) {
	s, c := startServer(t, Options{Workers: 1})
	hs := []float64{0.4e-6, 0.5e-6, 0.6e-6}
	var expired atomic.Int32
	s.sweepH = func(ctx context.Context, ex sched.Executor, base geom.CrossingPairSpec, hs []float64, edge float64) ([]*extract.ArchFit, []error) {
		<-ctx.Done() // the deadline expires mid-sweep
		fits, errs := extract.SweepH(ctx, ex, base, hs, edge)
		for _, err := range errs {
			if errors.Is(err, context.DeadlineExceeded) {
				expired.Add(1)
			}
		}
		return fits, errs
	}
	streamed := 0
	_, err := c.Sweep(context.Background(),
		&SweepRequest{EdgeM: 0.5e-6, TemplateHs: hs, TimeoutMs: 20},
		func(*SweepPoint) { streamed++ })
	re := new(RequestError)
	if !errors.As(err, &re) || re.Code != CodeDeadlineExceeded {
		t.Fatalf("expired template sweep returned %v, want a deadline_exceeded line", err)
	}
	if got := int(expired.Load()); got != len(hs) {
		t.Errorf("%d of %d points failed with the job's deadline", got, len(hs))
	}
	if streamed != 0 {
		t.Errorf("%d points streamed as failures of their own", streamed)
	}
	if st := s.Stats(); st.DeadlineExceeded != 1 || st.Failed != 1 || st.SweepPointErrors != 0 {
		t.Errorf("stats: deadline_exceeded %d failed %d sweep_point_errors %d, want 1/1/0",
			st.DeadlineExceeded, st.Failed, st.SweepPointErrors)
	}
}

// TestServePairCountersLive: the engine's class table is the one every
// served panel extraction reads, so /stats' pair_* count served traffic. A
// cold dense extract of the 2x2 bus misses once per symmetry class of its
// 7 260 panel pairs — the 378 of assembly's census — and hits on every
// other pair it looks up; 5 686 pairs its blocks' memos serve (pair_memo)
// look nothing up. The same family at another H misses only on the classes H
// moved and keeps the rest of the previous variant's matrix; and
// /metrics reads what /stats reads. (One worker and a budget of one: the
// share of hits a sweep's cursor serves, pair_sequential, repeats only
// then.)
func TestServePairCountersLive(t *testing.T) {
	s, c := startServer(t, Options{Workers: 1, WorkerBudget: 1})
	ctx := context.Background()
	busAt := func(h float64) string {
		sp := geom.DefaultBus(2, 2)
		sp.H = h
		return geoText(t, sp.Build())
	}
	extract := func(h float64) batch.Stats {
		t.Helper()
		if _, err := c.Extract(ctx, &ExtractRequest{Geometry: busAt(h), EdgeM: 1e-6, Backend: "dense"}); err != nil {
			t.Fatal(err)
		}
		return s.Stats().Engine
	}
	if e := s.Stats().Engine; e.PairHits != 0 || e.PairMisses != 0 || e.PairEntries != 0 {
		t.Fatalf("an idle server's class table: %+v", e)
	}
	cold := extract(geom.DefaultBus(2, 2).H)
	if cold.PairMisses != 378 || cold.PairHits != 7260-5686-378 || cold.PairEntries != 378 || cold.Fill.ClassesIntegrated != 378 ||
		cold.Fill.PairsNear != 7260 || cold.Fill.PairMemo != 5686 {
		t.Errorf("cold extract: %d misses, %d hits, %d from block memos, %d entries, %d classes integrated; want 378 classes for 7260 pairs, 1574 of them looked up",
			cold.PairMisses, cold.PairHits, cold.Fill.PairMemo, cold.PairEntries, cold.Fill.ClassesIntegrated)
	}
	if cold.Fill.PairSequential == 0 || uint64(cold.Fill.PairSequential) > cold.PairHits {
		t.Errorf("cold extract: %d of %d hits by cursor", cold.Fill.PairSequential, cold.PairHits)
	}
	variant := extract(1.25 * geom.DefaultBus(2, 2).H)
	if variant.PairHits <= cold.PairHits {
		t.Errorf("a variant of the family moved pair_hits %d -> %d", cold.PairHits, variant.PairHits)
	}
	if moved := variant.PairMisses - cold.PairMisses; moved == 0 || moved >= 378 || variant.Fill.ClassesIntegrated != int64(variant.PairMisses) {
		t.Errorf("a variant of the family missed on %d classes (cold: 378), %d integrated in all for %d misses",
			moved, variant.Fill.ClassesIntegrated, variant.PairMisses)
	}

	resp, err := http.Get(c.BaseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	series := parseProm(t, string(body))
	for name, want := range map[string]float64{
		"parbem_engine_pair_hits_total":       float64(variant.PairHits),
		"parbem_engine_pair_misses_total":     float64(variant.PairMisses),
		"parbem_engine_pair_sequential_total": float64(variant.Fill.PairSequential),
		"parbem_engine_pair_memo_total":       float64(variant.Fill.PairMemo),
		"parbem_engine_pair_entries":          float64(variant.PairEntries),
	} {
		if got, ok := series[name]; !ok || got != want {
			t.Errorf("%s = %v (present: %v), /stats says %v", name, got, ok, want)
		}
	}
}

// parseProm parses Prometheus text exposition into series → value.
func parseProm(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := promLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparseable exposition line: %q", line)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("bad sample value in %q: %v", line, err)
		}
		out[m[1]+m[2]] = v
	}
	return out
}

// TestServeMetricsAgreesWithStats pins GET /metrics: it parses as
// Prometheus text exposition, its counters agree with /stats, and its
// histograms are internally consistent (monotone cumulative buckets,
// +Inf bucket == _count, queue-wait observations == dispatched jobs).
func TestServeMetricsAgreesWithStats(t *testing.T) {
	s, c := startServer(t, Options{Workers: 2})
	ctx := context.Background()

	if _, err := c.Extract(ctx, &ExtractRequest{
		Geometry: geoText(t, crossingAt(0.5e-6)), EdgeM: 0.5e-6, Backend: "dense"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Sweep(ctx, &SweepRequest{
		EdgeM: 0.5e-6, Backend: "dense",
		Variants: []string{geoText(t, crossingAt(0.45e-6)), geoText(t, crossingAt(0.55e-6))},
	}, nil); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(c.BaseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q, want Prometheus text exposition 0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	series := parseProm(t, string(body))
	st := s.Stats()
	if st.Engine.Fill.PairMemo == 0 {
		t.Error("dense extracts of the crossing pair: no near pair served by a block memo")
	}

	for name, want := range map[string]uint64{
		"parbem_jobs_accepted_total":              st.Accepted,
		"parbem_jobs_completed_total":             st.Completed,
		"parbem_jobs_failed_total":                st.Failed,
		"parbem_jobs_cancelled_total":             st.Cancelled,
		"parbem_deadline_exceeded_total":          st.DeadlineExceeded,
		"parbem_extracts_total":                   st.Extracts,
		"parbem_sweeps_total":                     st.Sweeps,
		"parbem_sweep_points_total":               st.SweepPoints,
		"parbem_sweep_point_errors_total":         st.SweepPointErrors,
		"parbem_engine_state_hits_total":          st.Engine.StateHits,
		"parbem_engine_state_misses_total":        st.Engine.StateMisses,
		"parbem_engine_pair_hits_total":           st.Engine.PairHits,
		"parbem_engine_pair_misses_total":         st.Engine.PairMisses,
		"parbem_engine_pair_sequential_total":     uint64(st.Engine.Fill.PairSequential),
		"parbem_engine_pair_memo_total":           uint64(st.Engine.Fill.PairMemo),
		"parbem_bad_requests_total":               st.BadRequests,
		"parbem_jobs_rejected_queue_full_total":   st.RejectedQueueFull,
		"parbem_jobs_rejected_rate_limited_total": st.RejectedRateLimited,
	} {
		got, ok := series[name]
		if !ok {
			t.Errorf("metric %s missing from exposition", name)
			continue
		}
		if got != float64(want) {
			t.Errorf("%s = %v, /stats says %d", name, got, want)
		}
	}

	// Queue-wait histogram: one observation per dispatched job, split
	// across the class labels; +Inf bucket equals the count.
	var qwCount float64
	for _, class := range []string{"interactive", "bulk"} {
		cnt := series[fmt.Sprintf(`parbem_queue_wait_seconds_count{class=%q}`, class)]
		inf := series[fmt.Sprintf(`parbem_queue_wait_seconds_bucket{class=%q,le="+Inf"}`, class)]
		if cnt != inf {
			t.Errorf("class %s: +Inf bucket %v != count %v", class, inf, cnt)
		}
		qwCount += cnt
	}
	if dispatched := float64(st.Completed + st.Failed + st.Cancelled); qwCount != dispatched {
		t.Errorf("queue-wait observations %v, want %v (one per dispatched job)", qwCount, dispatched)
	}

	// The dense extract and the two fresh sweep variants all solved:
	// the solve-stage histogram for the dense backend must exist and
	// hold their observations.
	solveCount := series[`parbem_stage_seconds_count{stage="solve",backend="dense"}`]
	if solveCount < 1 {
		t.Errorf("solve-stage histogram empty after %d dense solves", st.Extracts+st.SweepPoints)
	}

	// Cumulative buckets must be monotone for every histogram series.
	for key := range series {
		if !strings.Contains(key, "_bucket{") {
			continue
		}
		// Spot-checked via +Inf equality above; monotonicity follows
		// from the cumulative writer, so just require non-negative.
		if series[key] < 0 {
			t.Errorf("negative bucket %s", key)
		}
	}
}
