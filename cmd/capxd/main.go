// Capxd is the long-running extraction service daemon: an HTTP/JSON
// front end over one shared batch engine, so the plan, basis and
// pair-integral caches amortize across requests instead of dying with
// each capx invocation (see internal/serve for the API).
//
//	capxd -addr :8437 -workers 8 -budget 2 -queue 128 -data-dir /var/lib/capxd
//
// Endpoints: POST /extract, POST /sweep (NDJSON stream), GET /jobs/{id},
// GET /healthz, GET /stats (JSON), GET /metrics (Prometheus text
// exposition: every /stats counter plus queue-wait and per-stage
// latency histograms). The capx CLI rides the same API:
//
//	capx -remote http://localhost:8437 -structure bus -backend fastcap
//	capx -remote http://localhost:8437 -structure crossing -sweep 8
//
// Admission control: extracts and sweeps queue separately (-queue and
// -sweep-queue) and runners always take a waiting extract before the
// next sweep, so bulk traffic cannot starve interactive requests.
// Requests beyond the class queue depth are rejected immediately with
// HTTP 429 and a structured queue_full error carrying Retry-After
// advice; -budget caps how many pool workers any single job occupies,
// so -runners concurrent jobs share the persistent pool instead of
// oversubscribing. With -tenant-rate set, each tenant (X-Tenant request
// header) is admitted through its own token bucket and rejected with a
// structured 429 (plus Retry-After computed from the refill rate) when
// over its rate. Requests may carry timeout_ms; expiry returns a
// structured deadline_exceeded error (HTTP 504) with the stage, elapsed
// time, iterations completed — and, when the solve got far enough, the
// last GMRES iterates' residual and best-effort capacitance estimate.
//
// # Durability and restarts
//
// With -data-dir set, async extract jobs are journaled to
// <dir>/jobs.journal, fsync'd at every state edge: a 202 acknowledgment
// means the job survives SIGKILL or power loss. On startup capxd
// replays the journal — finished jobs stay queryable via GET /jobs/{id}
// with their persisted results, unfinished ones (including jobs an
// overrun drain interrupted) are re-enqueued and run again, with
// client-supplied idempotency keys deduplicating retried submissions.
//
// SIGTERM/SIGINT triggers a graceful drain: admission rejects new work
// with a structured 503 draining error (Retry-After attached), /healthz
// flips to 503 so load balancers rotate the replica out, and running
// jobs get -drain-timeout to finish. Past the timeout they are
// context-cancelled at their next solver checkpoint and journaled as
// interrupted — the next lifetime owes them a run. The journal is
// compacted and the process exits 0.
//
// # Running a replica set
//
// Each replica persists the expensive solver by-product — near-field
// matrix values, keyed by a content hash of geometry and solve
// options — in its own disk artifact store under
// <data-dir>/artifacts (size-bounded by -artifact-max-bytes, LRU), so a
// restarted replica skips the integration work of the families it has
// built before. Replicas share no storage and fetch nothing from each
// other:
//
//	capxd -addr :8437 -data-dir /var/lib/capxd-a
//	capxd -addr :8437 -data-dir /var/lib/capxd-b
//
// A thin coordinator in front of the set keeps their caches warm: capxd
// -route runs no engine at all — it consistent-hashes each request's
// geometry-family key over the replicas listed in -peers and forwards
// to the owning replica, so every variant of a family lands where its
// plans and artifacts are already warm. The coordinator fails over to
// ring successors (with backoff) when the owner is down or shedding —
// the family then rebuilds on its new owner — and fans GET /jobs/{id}
// out to all replicas:
//
//	capxd -route -addr :8400 -peers http://a:8437,http://b:8437
//
// Clients talk to the coordinator exactly as they would to a replica;
// its /stats and /metrics expose forwarding and failover counters
// instead of engine state. -peers without -route is an error.
//
// # Precision
//
// Requests may carry a "precision" selector (auto | fp64 | mixed); the
// mixed setting runs the accelerated matvec through a float32 operator
// inside float64 iterative refinement (capx -precision). A request that
// leaves it empty or on auto runs fp64; the response reports the
// arithmetic that actually ran.
//
// # Profiling
//
// -pprof addr serves the net/http/pprof handlers (goroutine, heap, CPU
// profiles) on a separate side listener, e.g. -pprof localhost:6060,
// then `go tool pprof http://localhost:6060/debug/pprof/profile`. It is
// deliberately a second listener so profiling never shares the public
// service address; bind it to localhost.
//
// -faults arms the fault-injection hooks (internal/faultpoint; also via
// the CAPXD_FAULTS environment variable) for crash-safety testing, e.g.
// "journal.sync@3:crash" kills the process on the third journal fsync.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // profiling handlers for the -pprof side listener
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"parbem/internal/faultpoint"
	"parbem/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is the daemon body, factored from main so the kill-and-recover
// test can re-exec the test binary as a real capxd process.
func run(args []string) int {
	fs := flag.NewFlagSet("capxd", flag.ExitOnError)
	var (
		addr         = fs.String("addr", ":8437", "listen address")
		addrFile     = fs.String("addr-file", "", "write the bound listen address to this file (for :0 callers)")
		workers      = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		budget       = fs.Int("budget", 0, "max pool workers per job (0 = whole pool)")
		runners      = fs.Int("runners", 0, "concurrent jobs (0 = workers/budget, min 1)")
		queue        = fs.Int("queue", 64, "interactive (extract) admission queue depth")
		sweepQueue   = fs.Int("sweep-queue", 0, "bulk (sweep) admission queue depth (0 = same as -queue)")
		tenantRate   = fs.Float64("tenant-rate", 0, "per-tenant admitted requests/sec via X-Tenant header (0 = unlimited)")
		tenantBurst  = fs.Int("tenant-burst", 0, "per-tenant burst capacity (0 = ceil(rate))")
		cache        = fs.Int("cache", 0, "state/plan LRU entries (0 = default 64); a plan keeps its last result, and its matrix and factors only while newest or once it has two variants")
		maxBody      = fs.Int64("maxbody", 0, "request body cap in bytes (0 = default 8 MiB)")
		maxPanels    = fs.Int("maxpanels", 0, "per-request estimated panel cap (0 = default 200000)")
		history      = fs.Int("jobhistory", 0, "finished jobs kept for GET /jobs/{id} (0 = default 256)")
		dataDir      = fs.String("data-dir", "", "durable job journal directory (empty = no persistence)")
		peers        = fs.String("peers", "", "with -route: comma-separated replica base URLs, the replica set")
		route        = fs.Bool("route", false, "coordinator mode: run no engine, consistent-hash /extract and /sweep over -peers")
		artifactMax  = fs.Int64("artifact-max-bytes", 0, "artifact store size budget under <data-dir>/artifacts (0 = 1 GiB)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "graceful-drain budget on SIGTERM/SIGINT before running jobs are interrupted")
		pprofAddr    = fs.String("pprof", "", "serve net/http/pprof on this side listener (empty = disabled; keep it off the public address)")
		faults       = fs.String("faults", os.Getenv("CAPXD_FAULTS"), "fault-injection spec, e.g. journal.sync@3:crash (testing only)")
	)
	fs.Parse(args)

	if *peers != "" && !*route {
		log.Print("capxd: -peers lists the replica set of a -route coordinator; a replica takes no peers")
		return 2
	}

	if *pprofAddr != "" {
		// The profiling handlers live on the default mux of a separate
		// listener, so they never share a port (or an exposure surface)
		// with the service API.
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			log.Printf("capxd: -pprof: %v", err)
			return 2
		}
		go func() {
			if err := http.Serve(pln, nil); err != nil && !errors.Is(err, net.ErrClosed) {
				log.Printf("capxd: pprof: %v", err)
			}
		}()
		log.Printf("capxd: pprof listening on %s", pln.Addr())
	}

	if *faults != "" {
		if err := faultpoint.Configure(*faults); err != nil {
			log.Printf("capxd: -faults: %v", err)
			return 2
		}
		log.Printf("capxd: fault injection armed: %s", *faults)
	}

	if *route {
		return runRouter(*addr, *addrFile, splitPeers(*peers), serve.Limits{
			MaxBodyBytes: *maxBody,
			MaxPanels:    *maxPanels,
		})
	}

	artifactDir := ""
	if *dataDir != "" {
		artifactDir = filepath.Join(*dataDir, "artifacts")
	}

	s, err := serve.Open(serve.Options{
		Workers:          *workers,
		WorkerBudget:     *budget,
		Runners:          *runners,
		QueueDepth:       *queue,
		SweepQueueDepth:  *sweepQueue,
		TenantRate:       *tenantRate,
		TenantBurst:      *tenantBurst,
		CacheEntries:     *cache,
		JobHistory:       *history,
		DataDir:          *dataDir,
		ArtifactDir:      artifactDir,
		ArtifactMaxBytes: *artifactMax,
		Logf:             log.Printf,
		Limits: serve.Limits{
			MaxBodyBytes: *maxBody,
			MaxPanels:    *maxPanels,
		},
	})
	if err != nil {
		log.Printf("capxd: %v", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Printf("capxd: %v", err)
		s.Close()
		return 1
	}
	if *addrFile != "" {
		if err := writeAddrFile(*addrFile, ln.Addr().String()); err != nil {
			log.Printf("capxd: %v", err)
			s.Close()
			return 1
		}
	}

	// Header/idle timeouts close the slow-client hole that would bypass
	// the bounded-queue admission control (no WriteTimeout: sweep
	// responses are long-lived NDJSON streams).
	httpSrv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		// Drain while still serving: in-flight and retrying clients see
		// structured 503 draining responses (and /healthz flips) instead
		// of connection resets, and running jobs get -drain-timeout to
		// finish before being interrupted.
		log.Printf("capxd: draining (timeout %v)", *drainTimeout)
		if err := s.Drain(*drainTimeout); err != nil {
			log.Printf("capxd: %v", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("capxd: shutdown: %v", err)
		}
	}()

	log.Printf("capxd: listening on %s (pool %d workers, budget %d/job, queue %d, data-dir %q)",
		ln.Addr(), s.Engine().Workers(), *budget, *queue, *dataDir)
	if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Print(err)
		s.Close()
		return 1
	}
	<-done
	// Close compacts the journal; an interrupted backlog stays
	// re-runnable for the next lifetime.
	s.Close()
	log.Print("capxd: drained, exiting")
	return 0
}

// runRouter is the -route body: serve the consistent-hash coordinator
// over the replica set instead of a local engine.
func runRouter(addr, addrFile string, replicas []string, limits serve.Limits) int {
	rt, err := serve.NewRouter(serve.RouterOptions{
		Replicas: replicas,
		Limits:   limits,
		Logf:     log.Printf,
	})
	if err != nil {
		log.Printf("capxd: -route: %v", err)
		return 2
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Printf("capxd: %v", err)
		return 1
	}
	if addrFile != "" {
		if err := writeAddrFile(addrFile, ln.Addr().String()); err != nil {
			log.Printf("capxd: %v", err)
			return 1
		}
	}
	httpSrv := &http.Server{
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		// The router holds no job state, so shutdown only needs to let
		// in-flight forwards finish.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("capxd: shutdown: %v", err)
		}
	}()
	log.Printf("capxd: routing on %s over %d replicas", ln.Addr(), len(replicas))
	if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Print(err)
		return 1
	}
	<-done
	log.Print("capxd: router exiting")
	return 0
}

// splitPeers parses the -peers comma list, dropping empty elements and
// trailing slashes.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimRight(strings.TrimSpace(p), "/")
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

// writeAddrFile publishes the bound address atomically (temp + rename)
// so a parent polling the file never reads a partial write.
func writeAddrFile(path, addr string) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(addr), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
