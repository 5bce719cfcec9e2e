package serve

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parbem/internal/plan"
)

// GET /metrics exposes every /stats counter plus latency histograms in
// Prometheus text exposition format (version 0.0.4), hand-written so
// the daemon stays dependency-free. The name inventory:
//
//	parbem_uptime_seconds                     gauge
//	parbem_queue_cap / parbem_runners /
//	parbem_pool_workers / parbem_worker_budget gauges (configuration)
//	parbem_jobs_accepted_total                counter
//	parbem_jobs_rejected_queue_full_total     counter
//	parbem_jobs_rejected_rate_limited_total   counter
//	parbem_bad_requests_total                 counter
//	parbem_jobs_completed_total               counter
//	parbem_jobs_failed_total                  counter
//	parbem_jobs_cancelled_total               counter
//	parbem_deadline_exceeded_total            counter
//	parbem_jobs_queued{class=}                gauge (interactive|bulk)
//	parbem_jobs_running                       gauge
//	parbem_extracts_total / parbem_sweeps_total counters
//	parbem_sweep_points_total / parbem_sweep_point_errors_total counters
//	parbem_draining                           gauge (0/1)
//	parbem_jobs_rejected_draining_total       counter
//	parbem_jobs_replayed_total                counter
//	parbem_jobs_interrupted_total             counter
//	parbem_idempotent_hits_total              counter
//	parbem_engine_state_hits_total / _misses_total counters
//	parbem_engine_pair_hits_total / _misses_total  counters
//	parbem_engine_pair_entries                gauge
//	parbem_engine_plans_released_total        counter
//	parbem_artifact_entries / parbem_artifact_bytes gauges
//	parbem_artifact_local_hits_total /
//	parbem_artifact_peer_hits_total /
//	parbem_artifact_misses_total /
//	parbem_artifact_puts_total /
//	parbem_artifact_peer_errors_total /
//	parbem_artifact_evictions_total /
//	parbem_artifact_corrupt_total             counters (ArtifactDir set)
//	parbem_queue_wait_seconds{class=}         histogram
//	parbem_stage_seconds{stage=,backend=}     histogram
//	    stage: discretize|topology|near_field|factorize|solve

// latencyBounds are the histogram bucket upper bounds in seconds,
// spanning sub-millisecond queue waits to multi-second dense solves.
var latencyBounds = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// histogram is a fixed-bucket latency histogram with lock-free
// observation; counts[len(bounds)] is the +Inf bucket.
type histogram struct {
	bounds []float64
	counts []atomic.Uint64
	sumNs  atomic.Int64
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// observe records one duration.
func (h *histogram) observe(d time.Duration) {
	h.counts[sort.SearchFloat64s(h.bounds, d.Seconds())].Add(1)
	h.sumNs.Add(int64(d))
}

// count is the total number of observations.
func (h *histogram) count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// stageKey labels one per-stage latency series.
type stageKey struct{ stage, backend string }

// metrics holds the server's latency histograms; counters live in
// counters (serve.go) and are exported by both /stats and /metrics.
type metrics struct {
	queueWait [numClasses]*histogram

	mu    sync.Mutex
	stage map[stageKey]*histogram
}

func newMetrics() *metrics {
	m := &metrics{stage: make(map[stageKey]*histogram)}
	for i := range m.queueWait {
		m.queueWait[i] = newHistogram(latencyBounds)
	}
	return m
}

// stageHist returns (creating on first use) the series of one
// stage/backend pair.
func (m *metrics) stageHist(stage, backend string) *histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := stageKey{stage, backend}
	h := m.stage[k]
	if h == nil {
		h = newHistogram(latencyBounds)
		m.stage[k] = h
	}
	return h
}

// observeStages records the per-stage build latencies of one
// extraction under its backend label. A cached Result repeats the
// original build's timings — recognizable because the request's wall
// time sits far below the reported stage sum — and contributes
// nothing: the histograms measure work performed, not results served.
func (m *metrics) observeStages(backend string, st plan.StageTimings, wall time.Duration) {
	sum := st.Discretize + st.Topology + st.NearField + st.Factorize + st.Solve
	if sum == 0 || wall < sum/2 {
		return
	}
	for _, sb := range [...]struct {
		name string
		d    time.Duration
	}{
		{"discretize", st.Discretize},
		{"topology", st.Topology},
		{"near_field", st.NearField},
		{"factorize", st.Factorize},
		{"solve", st.Solve},
	} {
		if sb.d > 0 {
			m.stageHist(sb.name, backend).observe(sb.d)
		}
	}
}

// fmtFloat renders a float the way Prometheus expects (shortest
// round-trip decimal).
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// writeCounter / writeGauge emit one unlabelled series with metadata.
func writeCounter(b *strings.Builder, name, help string, v uint64) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

func writeGauge(b *strings.Builder, name, help string, v float64) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, fmtFloat(v))
}

// histSeries is one labelled series of a histogram family.
type histSeries struct {
	labels string // rendered label pairs, no braces, e.g. `class="bulk"`
	h      *histogram
}

// writeHistogram emits one histogram family in exposition order:
// cumulative le buckets, _sum, _count per series.
func writeHistogram(b *strings.Builder, name, help string, series []histSeries) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	for _, sr := range series {
		var cum uint64
		for i, bound := range sr.h.bounds {
			cum += sr.h.counts[i].Load()
			fmt.Fprintf(b, "%s_bucket{%s,le=%q} %d\n", name, sr.labels, fmtFloat(bound), cum)
		}
		cum += sr.h.counts[len(sr.h.bounds)].Load()
		fmt.Fprintf(b, "%s_bucket{%s,le=\"+Inf\"} %d\n", name, sr.labels, cum)
		fmt.Fprintf(b, "%s_sum{%s} %s\n", name, sr.labels, fmtFloat(float64(sr.h.sumNs.Load())/1e9))
		fmt.Fprintf(b, "%s_count{%s} %d\n", name, sr.labels, cum)
	}
}

// handleMetrics serves GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	var b strings.Builder

	writeGauge(&b, "parbem_uptime_seconds", "Seconds since the server started.", st.UptimeSec)
	writeGauge(&b, "parbem_queue_cap", "Total admission queue capacity across classes.", float64(st.QueueCap))
	writeGauge(&b, "parbem_runners", "Concurrent job runner goroutines.", float64(st.Runners))
	writeGauge(&b, "parbem_pool_workers", "Persistent engine pool size.", float64(st.PoolWorkers))
	writeGauge(&b, "parbem_worker_budget", "Pool workers one job may occupy (0 = all).", float64(st.WorkerBudget))

	writeCounter(&b, "parbem_jobs_accepted_total", "Jobs admitted to a queue.", st.Accepted)
	writeCounter(&b, "parbem_jobs_rejected_queue_full_total", "Jobs rejected because their class queue was full.", st.RejectedQueueFull)
	writeCounter(&b, "parbem_jobs_rejected_rate_limited_total", "Jobs rejected by per-tenant rate limits.", st.RejectedRateLimited)
	writeCounter(&b, "parbem_bad_requests_total", "Requests rejected at decode time.", st.BadRequests)
	writeCounter(&b, "parbem_jobs_completed_total", "Jobs that finished successfully.", st.Completed)
	writeCounter(&b, "parbem_jobs_failed_total", "Jobs that finished with an error (including deadline expiries).", st.Failed)
	writeCounter(&b, "parbem_jobs_cancelled_total", "Jobs abandoned by their client before completion.", st.Cancelled)
	writeCounter(&b, "parbem_deadline_exceeded_total", "Jobs stopped by their timeout_ms deadline.", st.DeadlineExceeded)

	fmt.Fprintf(&b, "# HELP parbem_jobs_queued Jobs waiting in the admission queue by class.\n# TYPE parbem_jobs_queued gauge\n")
	fmt.Fprintf(&b, "parbem_jobs_queued{class=\"interactive\"} %d\n", st.QueuedInteractive)
	fmt.Fprintf(&b, "parbem_jobs_queued{class=\"bulk\"} %d\n", st.QueuedBulk)
	writeGauge(&b, "parbem_jobs_running", "Jobs currently executing.", float64(st.Running))

	writeCounter(&b, "parbem_extracts_total", "Extract jobs started.", st.Extracts)
	writeCounter(&b, "parbem_sweeps_total", "Sweep jobs started.", st.Sweeps)
	writeCounter(&b, "parbem_sweep_points_total", "Sweep points delivered to clients.", st.SweepPoints)
	writeCounter(&b, "parbem_sweep_point_errors_total", "Delivered sweep points carrying a per-point error.", st.SweepPointErrors)

	draining := 0.0
	if st.Draining {
		draining = 1
	}
	writeGauge(&b, "parbem_draining", "1 while the server drains for shutdown.", draining)
	writeCounter(&b, "parbem_jobs_rejected_draining_total", "Jobs rejected because the server was draining.", st.RejectedDraining)
	writeCounter(&b, "parbem_jobs_replayed_total", "Unfinished journaled jobs re-enqueued at startup.", st.Replayed)
	writeCounter(&b, "parbem_jobs_interrupted_total", "Running jobs cut short by an overrun drain.", st.Interrupted)
	writeCounter(&b, "parbem_idempotent_hits_total", "Async submissions deduplicated by idempotency key.", st.IdempotentHits)

	writeCounter(&b, "parbem_engine_state_hits_total", "Engine basis/table/quad/plan LRU hits.", st.Engine.StateHits)
	writeCounter(&b, "parbem_engine_state_misses_total", "Engine basis/table/quad/plan LRU misses.", st.Engine.StateMisses)
	writeCounter(&b, "parbem_engine_pair_hits_total", "Symmetry-class table lookups served from the table (template and panel pairs).", st.Engine.PairHits)
	writeCounter(&b, "parbem_engine_pair_misses_total", "Symmetry-class table lookups that integrated their class.", st.Engine.PairMisses)
	writeCounter(&b, "parbem_engine_pair_sequential_total", "Symmetry-class table hits served next to the sweep's last hit in the table's log, without the index.", uint64(st.Engine.Fill.PairSequential))
	writeCounter(&b, "parbem_engine_pair_memo_total", "Near pairs of the block fills (template fills and dense panel assembly) served by their block's memo, without a table lookup.", uint64(st.Engine.Fill.PairMemo))
	writeGauge(&b, "parbem_engine_pair_entries", "Symmetry classes held by the engine's table.", float64(st.Engine.PairEntries))
	writeCounter(&b, "parbem_engine_plans_released_total", "Pipeline plans that gave up their matrices, operators and factors when a newer plan was created while they had installed at most one variant.", st.Engine.PlansReleased)

	if a := st.Artifacts; a != nil {
		writeGauge(&b, "parbem_artifact_entries", "Resident artifacts in the persistent store.", float64(a.Entries))
		writeGauge(&b, "parbem_artifact_bytes", "Resident artifact payload bytes.", float64(a.Bytes))
		writeCounter(&b, "parbem_artifact_local_hits_total", "Stage artifacts served from the local disk store.", a.LocalHits)
		writeCounter(&b, "parbem_artifact_peer_hits_total", "Stage artifacts fetched from a replica peer.", a.PeerHits)
		writeCounter(&b, "parbem_artifact_misses_total", "Stage artifact lookups that missed everywhere.", a.Misses)
		writeCounter(&b, "parbem_artifact_puts_total", "Stage artifacts written through to the store.", a.Puts)
		writeCounter(&b, "parbem_artifact_peer_errors_total", "Peer artifact fetches that failed (transport or non-200).", a.PeerErrors)
		writeCounter(&b, "parbem_artifact_evictions_total", "Artifacts evicted by the size budget.", a.Evictions)
		writeCounter(&b, "parbem_artifact_corrupt_total", "Artifacts dropped for failing frame verification.", a.Corrupt)
	}

	qw := make([]histSeries, 0, numClasses)
	for i, h := range s.m.queueWait {
		qw = append(qw, histSeries{labels: fmt.Sprintf("class=%q", classNames[i]), h: h})
	}
	writeHistogram(&b, "parbem_queue_wait_seconds", "Admission-to-start wait by priority class.", qw)

	s.m.mu.Lock()
	keys := make([]stageKey, 0, len(s.m.stage))
	for k := range s.m.stage {
		keys = append(keys, k)
	}
	stage := make([]histSeries, 0, len(keys))
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].stage != keys[j].stage {
			return keys[i].stage < keys[j].stage
		}
		return keys[i].backend < keys[j].backend
	})
	for _, k := range keys {
		stage = append(stage, histSeries{
			labels: fmt.Sprintf("stage=%q,backend=%q", k.stage, k.backend),
			h:      s.m.stage[k],
		})
	}
	s.m.mu.Unlock()
	writeHistogram(&b, "parbem_stage_seconds", "Pipeline stage build latency by stage and backend.", stage)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte(b.String()))
}
