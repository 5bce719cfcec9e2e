// Package serve implements the long-running extraction service behind
// the capxd daemon: an HTTP/JSON front end over one shared
// batch.Engine, so its plan cache and state LRU amortize across requests
// and process lifetime instead of dying with each CLI invocation.
//
// # Endpoints
//
//	POST /extract   one geometry through the unified operator pipeline
//	                (parbem.ExtractPipeline semantics, geomio payload);
//	                async=true enqueues and returns a job id
//	POST /sweep     a stream of geometry variants through the engine's
//	                family-keyed plan cache, or a template a(h), b(h)
//	                h-sweep (extract.SweepH); responds with NDJSON,
//	                one point per line, errors as per-point entries
//	GET  /jobs/{id} status and result of a submitted job
//	GET  /healthz   liveness
//	GET  /stats     queue gauges, job counters, engine cache counters
//	GET  /metrics   the same counters in Prometheus text exposition
//	                format, plus queue-wait and per-stage latency
//	                histograms (see metrics.go for the name inventory)
//
// The response schema matches capx -json (snake_case telemetry fields,
// c_farads matrix rows), so serving and CLI tooling share consumers;
// capx -remote http://... rides this API directly.
//
// # Admission control and worker budgeting
//
// Every solve enters a bounded job queue; when the queue is full the
// server rejects immediately with a structured queue_full error (HTTP
// 429) instead of building unbounded backlog. Admission is two-tier:
// interactive extracts and bulk sweeps queue separately, and runners
// take any waiting extract before the next sweep, so a burst of bulk
// traffic cannot starve latency-sensitive requests (it can only delay
// other bulk work). A fixed set of runner goroutines drains the
// queues, and each running job's stage builds and operator applies
// execute on a sched.Budgeted view of the engine's persistent worker
// pool, capped at WorkerBudget workers per request — concurrent
// requests divide the pool instead of each spawning GOMAXPROCS
// goroutines on top of one another. A template sweep (extract.SweepH)
// fans its points out on the same budgeted view.
//
// # Deadlines
//
// A request may carry timeout_ms; the clock starts at admission, so
// queue time counts against it. The deadline propagates as a
// context.Context through the engine, the plan-stage builds and the
// per-iteration GMRES checkpoints, so an expired request stops inside
// the solver instead of completing work nobody will read. Expiry
// surfaces as a structured deadline_exceeded error (HTTP 504 on a
// synchronous /extract) carrying partial telemetry: the stage that
// was running, elapsed milliseconds and Krylov iterations completed.
//
// # Tenant fairness
//
// When Options.TenantRate is set, each tenant — identified by the
// X-Tenant request header; absent headers share one anonymous bucket —
// is admitted through its own token bucket (TenantRate requests/sec
// sustained, TenantBurst burst). Requests over the limit are rejected
// with a structured rate_limited error (HTTP 429) before decode-time
// work is spent on them.
//
// Malformed input (bad JSON, bad geometry text, NaN coordinates,
// zero-area boxes, over-limit panel estimates) is rejected at decode
// time with a *RequestError before any solver state is touched; the
// boundary is fuzzed (FuzzDecodeRequest) to never panic.
//
// # Job accounting
//
// Every admitted job ends in exactly one of three monotonic counters:
// jobs_completed, jobs_failed or jobs_cancelled (the client went away
// — disconnect or abandoned stream — before or during the run), so
// jobs_accepted == completed + failed + cancelled holds at every
// quiescent point. Deadline expiries count as failures and are
// additionally tallied by the deadline_exceeded counter.
//
// # Durability and restarts
//
// With Options.DataDir set, async extract jobs are journaled (see
// durable.go and the journal package): the accepted record — wire
// payload, idempotency key — is fsync'd before POST /extract returns
// 202, and every later state edge follows it, so a SIGKILL or power
// loss loses no acknowledged job. Open replays the journal: finished
// jobs stay queryable via GET /jobs/{id}, unfinished ones re-run.
// Drain puts the server into a graceful stop: admission rejects with a
// structured 503 draining error (Retry-After attached), /healthz flips
// to 503, running jobs get a bounded time to finish and are interrupted
// — journaled as re-runnable — past it. Backpressure rejections
// (queue_full, rate_limited, draining) carry Retry-After advice in
// both the error body (retry_after_sec) and the HTTP header.
//
// # Cache sharing
//
// All requests share the engine's state LRU and plan cache: identical
// geometries are pure cache hits, and geometry variants of one
// structural family — an h-sweep arriving as separate HTTP requests —
// reuse each other's near-field integrals, block factorizations and
// warm starts exactly as an explicit parbem.Plan sweep would
// (TestServeWarmCacheSpeedup asserts the reuse as work not done — stages
// adopted, iterations saved, state-LRU hits; the milliseconds are the
// benchmark's serve.cold_ms against serve.variant_ms).
//
// # Running a replica set
//
// With Options.ArtifactDir set, the engine's plans read the expensive
// solver by-product — near-field matrix values, keyed by a content hash
// of geometry and solve options — from a disk artifact store
// (internal/artifact) before building, and write it through after, so
// identical-family integration work survives restarts
// (TestReplicaRestartAdoptsDiskArtifacts). /stats and /metrics report
// the store's counters (entries, bytes, hits, misses, puts, evictions,
// corrupt). Replicas share no artifacts: each store is its own.
//
// NewRouter is the thin coordinator in front of a replica set (capxd
// -route): it owns no engine, consistent-hashes each request's geometry
// family key (batch.FamilyKey) over the replicas, and forwards to the
// owning replica, so every variant of a family lands where its plans
// and artifacts are already warm. When the owner is down or shedding,
// the router walks the ring's successors with backoff and the family
// rebuilds on its new owner — a killed replica costs affinity, not
// availability (TestReplicaSetCoordinatorSoak pins zero failed client
// requests through a mid-soak kill).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"parbem/internal/artifact"
	"parbem/internal/batch"
	"parbem/internal/extract"
	"parbem/internal/faultpoint"
	"parbem/internal/geom"
	"parbem/internal/plan"
	"parbem/internal/sched"
	"parbem/internal/serve/journal"
)

// Options configures a Server. The zero value serves with a fresh
// GOMAXPROCS engine, queues of 64, one runner, no worker budget (each
// job may use the whole pool) and no tenant rate limits.
type Options struct {
	// Workers sizes the engine's persistent pool (0 = GOMAXPROCS).
	Workers int
	// WorkerBudget caps how many pool workers one job occupies
	// (0 = the whole pool) via the engine's PlanWorkers budget.
	WorkerBudget int
	// QueueDepth bounds the interactive (extract) admission queue
	// (0 = 64).
	QueueDepth int
	// SweepQueueDepth bounds the bulk (sweep) admission queue
	// (0 = QueueDepth).
	SweepQueueDepth int
	// Runners is the number of concurrent jobs (0 = pool/budget when a
	// budget is set, else 1).
	Runners int
	// TenantRate enables per-tenant token-bucket admission limits:
	// each tenant (X-Tenant header) sustains TenantRate requests/sec
	// with bursts of TenantBurst (0 burst = ceil(rate), min 1).
	// TenantRate 0 disables tenant limiting.
	TenantRate  float64
	TenantBurst int
	// CacheEntries sizes the engine's state LRU (0 = engine default, 64):
	// template basis sets and family plans. Every cached plan keeps its
	// last geometry and result, so an identical repeat costs no solve; a
	// plan keeps its matrix, operator and factors only while it is the
	// newest or once it has served two variants (batch.Engine's
	// ExtractPipelineCtx).
	CacheEntries int
	// Limits bound individual requests (zero value = defaults).
	Limits Limits
	// JobHistory is how many finished jobs stay queryable via
	// GET /jobs/{id} (0 = 256).
	JobHistory int
	// DataDir, when set, enables the durable job journal
	// (DataDir/jobs.journal): async extract jobs are fsync'd at every
	// state edge, replayed on the next Open — finished results stay
	// queryable across restarts, unfinished jobs re-run — and
	// deduplicated by idempotency key. Empty disables durability.
	// Synchronous requests never touch the journal either way: their
	// results die with the connection, so the fsyncs would buy nothing.
	DataDir string
	// ArtifactDir, when set, enables the persistent stage-artifact
	// store (capxd defaults it to DataDir/artifacts): the engine's
	// plans read near-field values through it before building and write
	// through after, so identical-family requests skip integration across
	// restarts. Empty disables persistence.
	ArtifactDir string
	// ArtifactMaxBytes bounds the resident artifact bytes under
	// ArtifactDir (LRU eviction; 0 = the store's 1 GiB default).
	ArtifactMaxBytes int64
	// Logf receives replay, drain, journal and artifact diagnostics
	// (nil = discard).
	Logf func(format string, args ...any)
}

// Job priority classes. Interactive jobs (extract) are popped with
// strict priority over bulk jobs (sweep): a runner drains every
// waiting interactive job before taking the next bulk one.
const (
	classInteractive = iota // extract: latency-sensitive
	classBulk               // sweep: throughput traffic
	numClasses
)

// classNames are the metric label values of the priority classes.
var classNames = [numClasses]string{"interactive", "bulk"}

// Server is the extraction service. Create with Open, expose with
// Handler, release with Close. Safe for concurrent use.
type Server struct {
	opt     Options
	limits  Limits
	eng     *batch.Engine
	limiter *tenantLimiter
	logf    func(format string, args ...any)

	// jrnl is the durable job log (nil without Options.DataDir); idem
	// maps live idempotency keys to job ids (guarded by mu).
	jrnl *journal.Journal
	idem map[string]string

	// artifacts is the persistent stage-artifact store (nil without
	// Options.ArtifactDir) the engine's plans read and write through.
	artifacts *artifact.Store

	// draining gates admission once Drain starts; baseCtx is the
	// ancestor of every job context and is cancelled when a drain
	// overruns its timeout, stopping in-flight jobs at their next
	// checkpoint.
	draining   atomic.Bool
	baseCtx    context.Context
	baseCancel context.CancelFunc
	// admitWG tracks admits between id reservation and channel send
	// (the send happens outside mu so the accepted journal record can
	// precede poppability); Close waits on it before closing the queues.
	admitWG sync.WaitGroup
	// ewmaRunNs smooths job run time for queue_full Retry-After advice.
	ewmaRunNs atomic.Int64

	// queues[classInteractive] holds extracts, queues[classBulk]
	// sweeps; runners pop interactive-first (see nextJob).
	queues  [numClasses]chan *job
	runners int
	wg      sync.WaitGroup

	mu     sync.Mutex
	jobs   map[string]*job
	hist   []string // finished job ids in retirement order
	seq    uint64
	closed bool

	start time.Time
	c     counters
	m     *metrics

	// sweepH runs the template h-sweep (extract.SweepH, on the engine's
	// budgeted executor); tests inject mid-sweep failures through it to
	// pin the per-point error reporting at the service edge.
	sweepH func(context.Context, sched.Executor, geom.CrossingPairSpec, []float64, float64) ([]*extract.ArchFit, []error)
}

// counters are the monotonic job/request counters of /stats. Queued
// (total and per class) and Running are gauges. Every accepted job
// lands in exactly one of completed/failed/cancelled.
type counters struct {
	accepted     atomic.Uint64
	rejectedFull atomic.Uint64
	rejectedRate atomic.Uint64
	badRequests  atomic.Uint64
	completed    atomic.Uint64
	failed       atomic.Uint64
	cancelled    atomic.Uint64
	deadline     atomic.Uint64
	queued       atomic.Int64
	queuedClass  [numClasses]atomic.Int64
	running      atomic.Int64

	extracts         atomic.Uint64
	sweeps           atomic.Uint64
	sweepPoints      atomic.Uint64
	sweepPointErrors atomic.Uint64

	rejectedDraining atomic.Uint64
	replayed         atomic.Uint64
	interrupted      atomic.Uint64
	idemHits         atomic.Uint64
}

// jobState is the lifecycle of a job.
type jobState int32

const (
	jobQueued jobState = iota
	jobRunning
	jobDone
	jobFailed
	jobCancelled
)

func (s jobState) String() string {
	switch s {
	case jobQueued:
		return "queued"
	case jobRunning:
		return "running"
	case jobDone:
		return "done"
	case jobFailed:
		return "failed"
	case jobCancelled:
		return "cancelled"
	}
	return fmt.Sprintf("jobState(%d)", int32(s))
}

// job is one admitted request. run executes on a runner goroutine;
// stream, when non-nil, receives per-point sweep messages and is closed
// by the runner when the job finishes. ctx is the requester's context,
// bounded by the request's timeout_ms deadline when one was set (the
// clock starts at admission): a job whose context has fired is skipped
// when popped, and one in flight is stopped at the next plan-stage or
// GMRES-iteration checkpoint. Async jobs derive from the background
// context; they deliberately outlive their submitting request but
// still honor their own deadline.
type job struct {
	id    string
	kind  string // "extract" | "sweep"
	class int    // classInteractive | classBulk
	state atomic.Int32
	ctx   context.Context
	// cancel releases the timeout_ms deadline timer; nil when the
	// request carried none.
	cancel context.CancelFunc

	run    func() (any, error)
	stream chan any

	// journaled jobs (async extracts on a durable server) write their
	// state edges to the journal; reqJSON is the wire payload persisted
	// with the accepted record, idemKey the client's dedup key.
	journaled bool
	reqJSON   json.RawMessage
	idemKey   string

	result any
	err    error
	done   chan struct{}

	enqueued time.Time
	started  time.Time
	finished time.Time
}

// release frees the job's deadline timer, if any.
func (j *job) release() {
	if j.cancel != nil {
		j.cancel()
	}
}

// artifactStore is the disk store as the engine's plans see it
// (plan.ArtifactStore): a failed write is logged and costs only a
// future rebuild.
type artifactStore struct {
	*artifact.Store
	logf func(format string, args ...any)
}

// Put implements plan.ArtifactStore.
func (a artifactStore) Put(key string, data []byte) {
	if err := a.Store.Put(key, data); err != nil {
		a.logf("serve: artifact %s: put failed: %v", key, err)
	}
}

// Open creates a server and starts its runner goroutines, replaying the
// durable job journal under Options.DataDir when one is configured:
// finished async jobs come back queryable via GET /jobs/{id}, unfinished
// ones are re-enqueued. It fails only when that journal cannot be opened
// or replayed.
func Open(opt Options) (*Server, error) {
	s := &Server{
		opt:    opt,
		limits: opt.Limits.withDefaults(),
		jobs:   make(map[string]*job),
		idem:   make(map[string]string),
		start:  time.Now(),
		m:      newMetrics(),
		sweepH: extract.SweepH,
		logf:   opt.Logf,
	}
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	var arts plan.ArtifactStore
	if opt.ArtifactDir != "" {
		store, err := artifact.Open(opt.ArtifactDir, artifact.Options{
			MaxBytes: opt.ArtifactMaxBytes,
			Logf:     s.logf,
		})
		if err != nil {
			return nil, fmt.Errorf("serve: artifact store: %w", err)
		}
		s.artifacts = store
		arts = artifactStore{store, s.logf}
	}
	s.eng = batch.New(batch.Options{
		Workers:      opt.Workers,
		PlanWorkers:  opt.WorkerBudget,
		CacheEntries: opt.CacheEntries,
		Artifacts:    arts,
	})
	depth := opt.QueueDepth
	if depth <= 0 {
		depth = 64
	}
	sweepDepth := opt.SweepQueueDepth
	if sweepDepth <= 0 {
		sweepDepth = depth
	}
	s.queues[classInteractive] = make(chan *job, depth)
	s.queues[classBulk] = make(chan *job, sweepDepth)
	if opt.TenantRate > 0 {
		s.limiter = newTenantLimiter(opt.TenantRate, opt.TenantBurst)
	}
	s.runners = opt.Runners
	if s.runners <= 0 {
		if s.opt.WorkerBudget > 0 {
			s.runners = s.eng.Workers() / s.opt.WorkerBudget
		}
		if s.runners < 1 {
			s.runners = 1
		}
	}
	// Replay before starting runners so re-enqueued jobs cannot race the
	// registration of restored ones.
	if opt.DataDir != "" {
		if err := s.openJournal(opt.DataDir); err != nil {
			s.eng.Close()
			return nil, err
		}
	}
	s.wg.Add(s.runners)
	for i := 0; i < s.runners; i++ {
		go s.runner()
	}
	return s, nil
}

// Engine exposes the shared batch engine (for tests and embedding).
func (s *Server) Engine() *batch.Engine { return s.eng }

// Close stops admitting jobs, drains the queues, waits for running
// jobs, compacts and closes the journal, and closes the engine.
// Call Drain first for a graceful stop that bounds how long running
// jobs may take.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	// Admits that passed the closed check still hold a send in flight;
	// wait them out before closing the queues.
	s.admitWG.Wait()
	for _, q := range s.queues {
		close(q)
	}
	s.wg.Wait()
	s.baseCancel()
	if s.jrnl != nil {
		s.compactJournal()
		if err := s.jrnl.Close(); err != nil {
			s.logf("serve: closing journal: %v", err)
		}
	}
	s.eng.Close()
}

// admit registers and enqueues a job on its class queue; a full queue,
// draining or closing server rejects with a structured error (full and
// draining rejections carry Retry-After advice). When the job's
// idempotency key matches a live job, that job is returned as dup and
// nothing is enqueued — the retried submit observes its original.
func (s *Server) admit(j *job) (dup *job, err error) {
	if ferr := faultpoint.Hit("serve.admit"); ferr != nil {
		j.release()
		return nil, &RequestError{Code: CodeInternal, Message: ferr.Error()}
	}
	q := s.queues[j.class]
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		j.release()
		return nil, &RequestError{Code: CodeShuttingDown, Message: "server is shutting down"}
	}
	if s.draining.Load() {
		s.mu.Unlock()
		s.c.rejectedDraining.Add(1)
		j.release()
		return nil, &RequestError{
			Code:          CodeDraining,
			Message:       "server is draining for shutdown; retry against another replica or after Retry-After",
			RetryAfterSec: drainingRetryAfterSec,
		}
	}
	if j.idemKey != "" {
		if prev, ok := s.idem[j.idemKey]; ok {
			dup := s.jobs[prev]
			s.mu.Unlock()
			s.c.idemHits.Add(1)
			j.release()
			if dup == nil {
				// The original retired out of the bounded history; its
				// work ran exactly once, but the result is gone.
				return nil, &RequestError{
					Code:    CodeNotFound,
					Message: fmt.Sprintf("idempotency key maps to job %s, which has been retired from history", prev),
				}
			}
			return dup, nil
		}
	}
	// Capacity is checked against the queued gauge rather than len(q):
	// the channel send happens after mu is released (the accepted
	// journal record must be durable before a runner can pop the job),
	// so the gauge is the reservation and the send below cannot block.
	if s.c.queuedClass[j.class].Load() >= int64(cap(q)) {
		retry := s.queueRetryAfter(j.class)
		s.mu.Unlock()
		s.c.rejectedFull.Add(1)
		j.release()
		return nil, &RequestError{
			Code:          CodeQueueFull,
			Message:       fmt.Sprintf("%s job queue full (%d pending)", classNames[j.class], cap(q)),
			RetryAfterSec: retry,
		}
	}
	s.seq++
	j.id = fmt.Sprintf("j%06d", s.seq)
	j.enqueued = time.Now()
	if j.idemKey != "" {
		s.idem[j.idemKey] = j.id
	}
	s.jobs[j.id] = j
	s.c.accepted.Add(1)
	s.c.queued.Add(1)
	s.c.queuedClass[j.class].Add(1)
	s.admitWG.Add(1)
	s.mu.Unlock()
	defer s.admitWG.Done()
	if j.journaled {
		// Durability before poppability: a 202 must mean the job
		// survives a crash, and the accepted record must hit disk
		// before any runner can journal the running edge.
		jerr := s.jrnl.Append(journal.Record{
			JobID: j.id, State: journal.StateAccepted, Kind: j.kind,
			IdemKey: j.idemKey, Request: j.reqJSON,
		})
		if jerr != nil {
			s.mu.Lock()
			delete(s.jobs, j.id)
			if j.idemKey != "" {
				delete(s.idem, j.idemKey)
			}
			s.mu.Unlock()
			s.c.accepted.Add(^uint64(0))
			s.c.queued.Add(-1)
			s.c.queuedClass[j.class].Add(-1)
			j.release()
			s.logf("serve: journaling admission of %s: %v", j.id, jerr)
			return nil, &RequestError{
				Code:    CodeInternal,
				Message: fmt.Sprintf("journaling admission: %v", jerr),
			}
		}
	}
	q <- j
	return nil, nil
}

// runner drains the queues until Close, interactive jobs first.
func (s *Server) runner() {
	defer s.wg.Done()
	hi, lo := s.queues[classInteractive], s.queues[classBulk]
	for {
		j, ok := nextJob(&hi, &lo)
		if !ok {
			return
		}
		s.dispatch(j)
	}
}

// nextJob pops the next job with strict priority: any waiting
// interactive job is taken before a bulk one; when the interactive
// queue is empty the runner blocks on both. Closed queues are nil-ed
// out (a nil channel never selects); ok=false once both are closed and
// drained.
func nextJob(hi, lo *chan *job) (*job, bool) {
	for {
		if *hi != nil {
			select {
			case j, ok := <-*hi:
				if !ok {
					*hi = nil
					continue
				}
				return j, true
			default:
			}
		}
		if *hi == nil && *lo == nil {
			return nil, false
		}
		select {
		case j, ok := <-*hi:
			if !ok {
				*hi = nil
				continue
			}
			return j, true
		case j, ok := <-*lo:
			if !ok {
				*lo = nil
				continue
			}
			return j, true
		}
	}
}

// dispatch runs one popped job and books its outcome into exactly one
// of completed/failed/cancelled (jobs_accepted == the sum of the
// three): a client that went away books cancelled, a deadline expiry
// books failed plus the deadline_exceeded tally, everything else
// follows the job error.
func (s *Server) dispatch(j *job) {
	s.c.queued.Add(-1)
	s.c.queuedClass[j.class].Add(-1)
	s.c.running.Add(1)
	j.started = time.Now()
	s.m.queueWait[j.class].observe(j.started.Sub(j.enqueued))
	j.state.Store(int32(jobRunning))
	if j.journaled {
		s.journal(journal.Record{JobID: j.id, State: journal.StateRunning})
	}

	var v any
	var err error
	if j.ctx != nil && j.ctx.Err() != nil {
		// The requester is gone — or its deadline expired — while the
		// job sat in the queue: don't burn pool workers on a result
		// nobody will read.
		if errors.Is(j.ctx.Err(), context.DeadlineExceeded) {
			err = &RequestError{
				Code:      CodeDeadlineExceeded,
				Message:   "deadline expired while the job was queued",
				Stage:     "queued",
				ElapsedMs: time.Since(j.enqueued).Seconds() * 1e3,
			}
		} else {
			err = &RequestError{Code: CodeCancelled, Message: "client went away before the job started"}
		}
		if j.stream != nil {
			close(j.stream)
		}
	} else if ferr := faultpoint.Hit("serve.run"); ferr != nil {
		err = &RequestError{Code: CodeInternal, Message: ferr.Error()}
		if j.stream != nil {
			close(j.stream)
		}
	} else {
		v, err = runJob(j)
	}

	j.result, j.err = v, err
	j.finished = time.Now()
	j.release()
	switch {
	case err == nil:
		j.state.Store(int32(jobDone))
		s.c.completed.Add(1)
	case asRequestError(err).Code == CodeCancelled:
		j.state.Store(int32(jobCancelled))
		s.c.cancelled.Add(1)
	default:
		if asRequestError(err).Code == CodeDeadlineExceeded {
			s.c.deadline.Add(1)
		}
		j.state.Store(int32(jobFailed))
		s.c.failed.Add(1)
	}
	s.observeRun(j.finished.Sub(j.started))
	if j.journaled {
		s.journalOutcome(j)
	}
	s.c.running.Add(-1)
	close(j.done)
	s.retire(j)
}

// observeRun folds one job's run time into the EWMA behind queue_full
// Retry-After advice (load/store races just blur the smoothing).
func (s *Server) observeRun(d time.Duration) {
	old := s.ewmaRunNs.Load()
	if old == 0 {
		s.ewmaRunNs.Store(int64(d))
		return
	}
	s.ewmaRunNs.Store(old - old/5 + int64(d)/5)
}

// runJob executes one job with panic containment: jobs run on raw
// runner goroutines (not HTTP handler goroutines), so without a recover
// here one latent solver panic would kill the whole daemon and every
// queued job. A sweep job's own deferred close(stream) runs during the
// unwind, so the streaming handler cannot hang on a panicked job.
func runJob(j *job) (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			v = nil
			err = &RequestError{Code: CodeInternal, Message: fmt.Sprintf("internal panic: %v", r)}
		}
	}()
	return j.run()
}

// retire keeps the finished-job history bounded.
func (s *Server) retire(j *job) {
	limit := s.opt.JobHistory
	if limit <= 0 {
		limit = 256
	}
	s.mu.Lock()
	s.hist = append(s.hist, j.id)
	for len(s.hist) > limit {
		if old := s.jobs[s.hist[0]]; old != nil && old.idemKey != "" {
			delete(s.idem, old.idemKey)
		}
		delete(s.jobs, s.hist[0])
		s.hist = s.hist[1:]
	}
	s.mu.Unlock()
}

// lookup returns a registered job.
func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// withDeadline bounds ctx by the request's timeout_ms, if any. The
// deadline clock starts here — at admission — so queue wait counts
// against the budget.
func withDeadline(ctx context.Context, timeoutMs float64) (context.Context, context.CancelFunc) {
	if timeoutMs <= 0 {
		return ctx, nil
	}
	return context.WithTimeout(ctx, time.Duration(timeoutMs*float64(time.Millisecond)))
}

// jobContext derives a job's context: bounded by the request's
// timeout_ms and additionally cancelled by the server's drain context,
// so an overrun drain can stop every job at its next checkpoint. The
// returned cancel releases the merge and any deadline timer.
func (s *Server) jobContext(ctx context.Context, timeoutMs float64) (context.Context, context.CancelFunc) {
	mctx, mcancel := context.WithCancel(ctx)
	stop := context.AfterFunc(s.baseCtx, mcancel)
	dctx, dcancel := withDeadline(mctx, timeoutMs)
	return dctx, func() {
		stop()
		if dcancel != nil {
			dcancel()
		}
		mcancel()
	}
}

// newExtractJob wraps an extract request as an interactive queue job.
// On a durable server, async jobs are journaled: their wire payload is
// persisted with the accepted record and their idempotency key (when
// the client sent one) dedups retried submissions.
func (s *Server) newExtractJob(ctx context.Context, req *ExtractRequest, st *geom.Structure) *job {
	if ctx == nil {
		ctx = context.Background()
	}
	j := &job{kind: "extract", class: classInteractive, done: make(chan struct{})}
	if req.Async {
		j.idemKey = req.IdempotencyKey
		if s.jrnl != nil {
			j.journaled = true
			j.reqJSON, _ = json.Marshal(req)
		}
	}
	j.ctx, j.cancel = s.jobContext(ctx, req.TimeoutMs)
	j.run = func() (any, error) {
		s.c.extracts.Add(1)
		res, err := s.runExtract(j, req, st)
		return res, err
	}
	return j
}

// newSweepJob wraps a sweep request as a streaming bulk queue job.
func (s *Server) newSweepJob(ctx context.Context, req *SweepRequest, sts []*geom.Structure) *job {
	if ctx == nil {
		ctx = context.Background()
	}
	j := &job{kind: "sweep", class: classBulk, done: make(chan struct{}), stream: make(chan any, 16)}
	j.ctx, j.cancel = s.jobContext(ctx, req.TimeoutMs)
	j.run = func() (any, error) {
		s.c.sweeps.Add(1)
		defer close(j.stream)
		return s.runSweep(j, req, sts)
	}
	return j
}

// Stats is the /stats payload.
type Stats struct {
	UptimeSec    float64 `json:"uptime_sec"`
	QueueDepth   int     `json:"queue_depth"`
	QueueCap     int     `json:"queue_cap"`
	Runners      int     `json:"runners"`
	PoolWorkers  int     `json:"pool_workers"`
	WorkerBudget int     `json:"worker_budget"`

	Accepted            uint64 `json:"jobs_accepted"`
	RejectedQueueFull   uint64 `json:"jobs_rejected_queue_full"`
	RejectedRateLimited uint64 `json:"jobs_rejected_rate_limited"`
	BadRequests         uint64 `json:"bad_requests"`
	Completed           uint64 `json:"jobs_completed"`
	Failed              uint64 `json:"jobs_failed"`
	Cancelled           uint64 `json:"jobs_cancelled"`
	DeadlineExceeded    uint64 `json:"deadline_exceeded"`
	Queued              int64  `json:"jobs_queued"`
	QueuedInteractive   int64  `json:"jobs_queued_interactive"`
	QueuedBulk          int64  `json:"jobs_queued_bulk"`
	Running             int64  `json:"jobs_running"`

	Extracts         uint64 `json:"extracts"`
	Sweeps           uint64 `json:"sweeps"`
	SweepPoints      uint64 `json:"sweep_points"`
	SweepPointErrors uint64 `json:"sweep_point_errors"`

	// Durability and drain telemetry (see Options.DataDir and Drain).
	Draining         bool   `json:"draining"`
	RejectedDraining uint64 `json:"jobs_rejected_draining"`
	Replayed         uint64 `json:"jobs_replayed"`
	Interrupted      uint64 `json:"jobs_interrupted"`
	IdempotentHits   uint64 `json:"idempotent_hits"`

	Engine batch.Stats `json:"engine"`

	// Artifacts is the persistent stage-artifact store's counters (nil
	// without Options.ArtifactDir).
	Artifacts *artifact.Stats `json:"artifacts,omitempty"`
}

// Stats snapshots the server and engine counters.
func (s *Server) Stats() Stats {
	var arts *artifact.Stats
	if s.artifacts != nil {
		st := s.artifacts.Stats()
		arts = &st
	}
	return Stats{
		Artifacts:    arts,
		UptimeSec:    time.Since(s.start).Seconds(),
		QueueDepth:   len(s.queues[classInteractive]) + len(s.queues[classBulk]),
		QueueCap:     cap(s.queues[classInteractive]) + cap(s.queues[classBulk]),
		Runners:      s.runners,
		PoolWorkers:  s.eng.Workers(),
		WorkerBudget: s.opt.WorkerBudget,

		Accepted:            s.c.accepted.Load(),
		RejectedQueueFull:   s.c.rejectedFull.Load(),
		RejectedRateLimited: s.c.rejectedRate.Load(),
		BadRequests:         s.c.badRequests.Load(),
		Completed:           s.c.completed.Load(),
		Failed:              s.c.failed.Load(),
		Cancelled:           s.c.cancelled.Load(),
		DeadlineExceeded:    s.c.deadline.Load(),
		Queued:              s.c.queued.Load(),
		QueuedInteractive:   s.c.queuedClass[classInteractive].Load(),
		QueuedBulk:          s.c.queuedClass[classBulk].Load(),
		Running:             s.c.running.Load(),

		Extracts:         s.c.extracts.Load(),
		Sweeps:           s.c.sweeps.Load(),
		SweepPoints:      s.c.sweepPoints.Load(),
		SweepPointErrors: s.c.sweepPointErrors.Load(),

		Draining:         s.draining.Load(),
		RejectedDraining: s.c.rejectedDraining.Load(),
		Replayed:         s.c.replayed.Load(),
		Interrupted:      s.c.interrupted.Load(),
		IdempotentHits:   s.c.idemHits.Load(),

		Engine: s.eng.Stats(),
	}
}
