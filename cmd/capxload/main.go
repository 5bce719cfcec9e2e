// Capxload is the load harness for capxd: it drives the golden-corpus
// geometries (testdata/golden) at a configurable concurrency and
// reports the sustained request rate, latency percentiles and
// rejection rates the service holds under that load.
//
//	capxload -addr http://localhost:8437 -c 8 -d 30s
//	capxload -inprocess -c 4 -d 10s -workers 4 -budget 1
//
// Each worker loops over the corpus round-robin issuing synchronous
// POST /extract requests (optionally mixing in a variants sweep every
// -sweep-every requests); -timeout-ms attaches a per-request deadline
// and -tenant an X-Tenant header, so the daemon's QoS machinery —
// deadline_exceeded 504s, per-tenant 429s, queue_full backpressure —
// is exercised exactly as production traffic would. Rejections and
// deadline expiries are expected outcomes under saturation and are
// tallied, not treated as harness failures; transport errors and
// malformed responses are.
//
// With -inprocess the harness embeds a serve.Server over a loopback
// listener instead of dialing a daemon, giving CI a deterministic
// smoke run with no process orchestration.
//
// -replicas N (in-process only) embeds N servers instead of one, each
// with its own journal and artifact directory, behind an embedded
// consistent-hash coordinator (capxd -route) — the whole replica-set
// topology in one process. The workers drive the coordinator, and the
// summary adds the coordinator's forwarding and failover counters and
// the replicas' summed artifact hits and misses, so CI can smoke the
// routing path with zero orchestration.
//
// -chaos (in-process only) turns the run into a resilience smoke: a
// chaos goroutine drains, closes and reopens the embedded server on the
// same journal directory every -chaos-every while the workers keep
// firing. The client retries backpressure with the serve.RetryPolicy
// backoff, so a healthy run rides through every restart; the summary
// reports how many requests were retried, how many waits honored server
// Retry-After advice (tallied separately from failures), and how many
// restarts the load survived.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parbem/internal/serve"
)

// corpusCase is one golden-corpus geometry with its reference edge.
type corpusCase struct {
	name string
	geo  string
	edge float64
}

// loadCorpus reads every *.geo in dir, taking edge_m from the matching
// *.json reference.
func loadCorpus(dir string) ([]corpusCase, error) {
	geos, err := filepath.Glob(filepath.Join(dir, "*.geo"))
	if err != nil {
		return nil, err
	}
	sort.Strings(geos)
	var cases []corpusCase
	for _, g := range geos {
		text, err := os.ReadFile(g)
		if err != nil {
			return nil, err
		}
		ref := strings.TrimSuffix(g, ".geo") + ".json"
		raw, err := os.ReadFile(ref)
		if err != nil {
			return nil, fmt.Errorf("%s has no reference json: %w", g, err)
		}
		var meta struct {
			Name  string  `json:"name"`
			EdgeM float64 `json:"edge_m"`
		}
		if err := json.Unmarshal(raw, &meta); err != nil {
			return nil, fmt.Errorf("%s: %w", ref, err)
		}
		if meta.EdgeM <= 0 {
			return nil, fmt.Errorf("%s: missing edge_m", ref)
		}
		cases = append(cases, corpusCase{name: meta.Name, geo: string(text), edge: meta.EdgeM})
	}
	if len(cases) == 0 {
		return nil, fmt.Errorf("no *.geo cases under %s", dir)
	}
	return cases, nil
}

// tally accumulates one worker's outcomes; workers own their tally and
// the main goroutine merges after the barrier, so no locking.
type tally struct {
	ok        int
	rejected  int             // queue_full + rate_limited backpressure
	deadline  int             // deadline_exceeded (timeout_ms fired)
	failed    int             // everything else: transport errors, solver failures
	latencies []time.Duration // successful requests only
}

func (t *tally) merge(o *tally) {
	t.ok += o.ok
	t.rejected += o.rejected
	t.deadline += o.deadline
	t.failed += o.failed
	t.latencies = append(t.latencies, o.latencies...)
}

// classify books one request outcome.
func (t *tally) classify(err error, elapsed time.Duration) {
	if err == nil {
		t.ok++
		t.latencies = append(t.latencies, elapsed)
		return
	}
	var re *serve.RequestError
	if asRE(err, &re) {
		switch re.Code {
		case serve.CodeQueueFull, serve.CodeRateLimited,
			serve.CodeDraining, serve.CodeShuttingDown:
			// Backpressure, including a drain window the retry budget
			// could not outlast: expected under chaos, not a failure.
			t.rejected++
			return
		case serve.CodeDeadlineExceeded:
			t.deadline++
			return
		}
	}
	t.failed++
}

// asRE unwraps err to a *serve.RequestError.
func asRE(err error, re **serve.RequestError) bool {
	for err != nil {
		if r, ok := err.(*serve.RequestError); ok {
			*re = r
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// percentile returns the p-th percentile (0-100) of sorted latencies.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p / 100 * float64(len(sorted)-1))
	return sorted[i]
}

// summary is the machine-readable report (-json).
type summary struct {
	Requests   int     `json:"requests"`
	DurationS  float64 `json:"duration_s"`
	ReqPerSec  float64 `json:"req_per_sec"`
	OK         int     `json:"ok"`
	Rejected   int     `json:"rejected"`
	Deadline   int     `json:"deadline_exceeded"`
	Failed     int     `json:"failed"`
	RejectRate float64 `json:"reject_rate"`
	P50Ms      float64 `json:"p50_ms"`
	P99Ms      float64 `json:"p99_ms"`
	MaxMs      float64 `json:"max_ms"`
	// Resilience tallies: backoff retries the client absorbed (not
	// failures), how many of those waits honored server Retry-After
	// advice, and how many chaos restarts the load rode through.
	Retried      int `json:"retried,omitempty"`
	HonoredWaits int `json:"honored_waits,omitempty"`
	Restarts     int `json:"restarts,omitempty"`
	// Replica-set tallies (-replicas > 1): artifact store traffic summed
	// over the set and the coordinator's forwarding counters.
	Replicas        int    `json:"replicas,omitempty"`
	ArtifactHits    uint64 `json:"artifact_hits,omitempty"`
	ArtifactMisses  uint64 `json:"artifact_misses,omitempty"`
	RouterForwarded uint64 `json:"router_forwarded,omitempty"`
	RouterFailovers uint64 `json:"router_failovers,omitempty"`
}

// swapHandler lets the chaos loop replace the live server's handler
// atomically while the listener (and client connections) stay up. The
// handler is boxed so stores of different concrete handler types (a
// placeholder, then a mux) satisfy atomic.Value's consistency rule.
type swapHandler struct{ h atomic.Value }

type handlerBox struct{ h http.Handler }

func (s *swapHandler) set(h http.Handler) { s.h.Store(&handlerBox{h}) }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.h.Load().(*handlerBox).h.ServeHTTP(w, r)
}

func main() {
	var (
		addr       = flag.String("addr", "", "capxd base URL (empty with -inprocess)")
		inproc     = flag.Bool("inprocess", false, "embed the server over a loopback listener instead of dialing -addr")
		corpus     = flag.String("corpus", "testdata/golden", "golden corpus directory")
		conc       = flag.Int("c", 4, "concurrent client workers")
		dur        = flag.Duration("d", 10*time.Second, "load duration")
		timeoutMs  = flag.Float64("timeout-ms", 0, "per-request timeout_ms (0 = none)")
		tenant     = flag.String("tenant", "", "X-Tenant header value")
		backend    = flag.String("backend", "", "backend selector (empty = auto)")
		sweepEvery = flag.Int("sweep-every", 0, "every Nth request per worker is a variants sweep (0 = extracts only)")
		jsonOut    = flag.Bool("json", false, "emit the summary as JSON")
		// in-process server shape
		workers = flag.Int("workers", 0, "in-process: engine pool size (0 = GOMAXPROCS)")
		budget  = flag.Int("budget", 0, "in-process: pool workers per job (0 = whole pool)")
		runners = flag.Int("runners", 0, "in-process: concurrent jobs (0 = derived)")
		queue   = flag.Int("queue", 64, "in-process: interactive queue depth")
		rate    = flag.Float64("tenant-rate", 0, "in-process: per-tenant requests/sec (0 = unlimited)")
		// chaos mode
		chaos      = flag.Bool("chaos", false, "in-process: drain and restart the embedded server mid-load (resilience smoke)")
		chaosEvery = flag.Duration("chaos-every", 2*time.Second, "in-process: interval between chaos restarts")
		dataDir    = flag.String("data-dir", "", "in-process: journal directory (-chaos default: a temp dir)")
		replicas   = flag.Int("replicas", 1, "in-process: embed N replicas behind a consistent-hash coordinator")
	)
	flag.Parse()
	if *chaos && !*inproc {
		log.Fatal("capxload: -chaos requires -inprocess")
	}
	if *replicas > 1 && !*inproc {
		log.Fatal("capxload: -replicas requires -inprocess")
	}
	if *replicas > 1 && *chaos {
		log.Fatal("capxload: -chaos and -replicas are mutually exclusive")
	}

	cases, err := loadCorpus(*corpus)
	if err != nil {
		log.Fatalf("capxload: %v", err)
	}

	base := *addr
	var (
		inOpts serve.Options
		inSrv  *serve.Server
		sw     *swapHandler
		// replica-set mode
		replicaSrvs []*serve.Server
		router      *serve.Router
	)
	if *inproc && *replicas > 1 {
		var urls []string
		for i := 0; i < *replicas; i++ {
			dir, err := os.MkdirTemp("", fmt.Sprintf("capxload-replica%d-", i))
			if err != nil {
				log.Fatalf("capxload: %v", err)
			}
			defer os.RemoveAll(dir)
			s, err := serve.Open(serve.Options{
				Workers: *workers, WorkerBudget: *budget,
				Runners: *runners, QueueDepth: *queue, TenantRate: *rate,
				DataDir:     dir,
				ArtifactDir: filepath.Join(dir, "artifacts"),
			})
			if err != nil {
				log.Fatalf("capxload: replica %d: %v", i, err)
			}
			defer s.Close()
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			replicaSrvs = append(replicaSrvs, s)
			urls = append(urls, ts.URL)
		}
		rt, err := serve.NewRouter(serve.RouterOptions{Replicas: urls})
		if err != nil {
			log.Fatalf("capxload: %v", err)
		}
		router = rt
		front := httptest.NewServer(rt.Handler())
		defer front.Close()
		base = front.URL
	} else if *inproc {
		inOpts = serve.Options{
			Workers: *workers, WorkerBudget: *budget,
			Runners: *runners, QueueDepth: *queue, TenantRate: *rate,
			DataDir: *dataDir,
		}
		if *chaos && inOpts.DataDir == "" {
			dir, err := os.MkdirTemp("", "capxload-chaos-")
			if err != nil {
				log.Fatalf("capxload: %v", err)
			}
			defer os.RemoveAll(dir)
			inOpts.DataDir = dir
		}
		s, err := serve.Open(inOpts)
		if err != nil {
			log.Fatalf("capxload: %v", err)
		}
		inSrv = s
		// The chaos loop swaps inSrv; close whichever is live at exit.
		defer func() { inSrv.Close() }()
		sw = &swapHandler{}
		sw.set(s.Handler())
		ts := httptest.NewServer(sw)
		defer ts.Close()
		base = ts.URL
	}
	if base == "" {
		log.Fatal("capxload: -addr or -inprocess required")
	}

	c := serve.NewClient(base)
	c.Tenant = *tenant
	var retried, honored atomic.Int64
	if *chaos {
		c.Retry = serve.DefaultRetry
	}
	c.OnRetry = func(attempt int, wait time.Duration, hon bool, err error) {
		retried.Add(1)
		if hon {
			honored.Add(1)
		}
	}
	if err := c.Health(context.Background()); err != nil {
		log.Fatalf("capxload: server not healthy: %v", err)
	}

	// Warm the engine caches once per case so the measured window
	// reflects steady-state serving, not first-touch plan builds.
	for _, cc := range cases {
		_, _ = c.Extract(context.Background(), &serve.ExtractRequest{
			Geometry: cc.geo, EdgeM: cc.edge, Backend: *backend,
		})
	}

	deadline := time.Now().Add(*dur)
	stopChaos := make(chan struct{})
	var chaosWG sync.WaitGroup
	restarts := 0
	if *chaos {
		chaosWG.Add(1)
		go func() {
			defer chaosWG.Done()
			tick := time.NewTicker(*chaosEvery)
			defer tick.Stop()
			for {
				select {
				case <-stopChaos:
					return
				case <-tick.C:
				}
				// Drain (in-flight requests finish, new ones bounce with
				// 503 draining + Retry-After), close — compacting the
				// journal — and reopen on the same data dir. Requests
				// that land on the dead server's handler in the gap get
				// a retryable shutting_down rejection.
				if err := inSrv.Drain(10 * time.Second); err != nil {
					log.Printf("capxload: chaos drain: %v", err)
				}
				inSrv.Close()
				ns, err := serve.Open(inOpts)
				if err != nil {
					log.Fatalf("capxload: chaos reopen: %v", err)
				}
				inSrv = ns
				sw.set(ns.Handler())
				restarts++
			}
		}()
	}
	var next atomic.Uint64
	tallies := make([]tally, *conc)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < *conc; w++ {
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			for n := 1; time.Now().Before(deadline); n++ {
				cc := cases[int(next.Add(1))%len(cases)]
				start := time.Now()
				var err error
				if *sweepEvery > 0 && n%*sweepEvery == 0 {
					_, err = c.Sweep(context.Background(), &serve.SweepRequest{
						Variants: []string{cc.geo}, EdgeM: cc.edge,
						Backend: *backend, TimeoutMs: *timeoutMs,
					}, nil)
				} else {
					_, err = c.Extract(context.Background(), &serve.ExtractRequest{
						Geometry: cc.geo, EdgeM: cc.edge,
						Backend: *backend, TimeoutMs: *timeoutMs,
					})
				}
				t.classify(err, time.Since(start))
			}
		}(&tallies[w])
	}
	wg.Wait()
	close(stopChaos)
	chaosWG.Wait()
	elapsed := time.Since(t0)

	var all tally
	for i := range tallies {
		all.merge(&tallies[i])
	}
	sort.Slice(all.latencies, func(i, j int) bool { return all.latencies[i] < all.latencies[j] })
	total := all.ok + all.rejected + all.deadline + all.failed
	sum := summary{
		Requests:  total,
		DurationS: elapsed.Seconds(),
		ReqPerSec: float64(total) / elapsed.Seconds(),
		OK:        all.ok, Rejected: all.rejected,
		Deadline: all.deadline, Failed: all.failed,
		P50Ms: percentile(all.latencies, 50).Seconds() * 1e3,
		P99Ms: percentile(all.latencies, 99).Seconds() * 1e3,
	}
	sum.Retried = int(retried.Load())
	sum.HonoredWaits = int(honored.Load())
	sum.Restarts = restarts
	if router != nil {
		sum.Replicas = len(replicaSrvs)
		rst := router.Stats()
		sum.RouterForwarded = rst.Forwarded
		sum.RouterFailovers = rst.Failovers
		for _, s := range replicaSrvs {
			if a := s.Stats().Artifacts; a != nil {
				sum.ArtifactHits += a.Hits
				sum.ArtifactMisses += a.Misses
			}
		}
	}
	if total > 0 {
		sum.RejectRate = float64(all.rejected) / float64(total)
	}
	if n := len(all.latencies); n > 0 {
		sum.MaxMs = all.latencies[n-1].Seconds() * 1e3
	}

	if *jsonOut {
		json.NewEncoder(os.Stdout).Encode(sum)
	} else {
		fmt.Printf("capxload: %d requests in %.1fs (%.1f req/s sustained, %d workers, %d corpus cases)\n",
			sum.Requests, sum.DurationS, sum.ReqPerSec, *conc, len(cases))
		fmt.Printf("  ok %d, rejected %d (%.1f%%), deadline_exceeded %d, failed %d\n",
			sum.OK, sum.Rejected, sum.RejectRate*100, sum.Deadline, sum.Failed)
		fmt.Printf("  latency ms: p50 %.2f  p99 %.2f  max %.2f\n", sum.P50Ms, sum.P99Ms, sum.MaxMs)
		if *chaos || sum.Retried > 0 {
			fmt.Printf("  resilience: %d retried (%d honored Retry-After), %d restarts survived\n",
				sum.Retried, sum.HonoredWaits, sum.Restarts)
		}
		if sum.Replicas > 0 {
			fmt.Printf("  replica set: %d replicas, %d forwarded (%d failovers), artifacts: %d hits, %d misses\n",
				sum.Replicas, sum.RouterForwarded, sum.RouterFailovers,
				sum.ArtifactHits, sum.ArtifactMisses)
		}
	}
	// Saturation outcomes (rejections, deadline expiries) are data, not
	// failures; a harness run fails only when requests error outright
	// or nothing completed at all.
	if all.failed > 0 || all.ok == 0 {
		os.Exit(1)
	}
}
