package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"parbem/internal/batch"
	"parbem/internal/geom"
)

// Router is the thin coordinator mode of capxd (-route): it owns no
// engine and runs no solves. It decodes each /extract and /sweep request
// just far enough to compute the geometry family key the replicas'
// engines cache plans under (batch.FamilyKey), consistent-hashes that
// key over the replica set, and forwards the request to the owning
// replica — so every variant of a family lands on the replica whose
// warm plan, near-field and artifact caches already hold it, instead of
// each replica re-warming every family.
//
// Failover: when the owning replica is unreachable (transport error) or
// answers with a retryable status (429/5xx), the router walks the
// ring's successors with the client backoff between full rounds, so
// killing one replica mid-soak costs affinity, not availability.
// Non-retryable statuses (400/404/422) pass through unchanged — they
// would fail identically everywhere.
type Router struct {
	opt    RouterOptions
	limits Limits
	ring   ring
	client *http.Client
	logf   func(format string, args ...any)
	start  time.Time

	forwarded   atomic.Uint64
	failovers   atomic.Uint64
	unavailable atomic.Uint64
	badRequests atomic.Uint64
}

// RouterOptions configures a coordinator.
type RouterOptions struct {
	// Replicas are the replica base URLs (required, e.g.
	// "http://10.0.0.2:8437"). Order is irrelevant: placement comes
	// from the hash ring, so all coordinators with the same set agree.
	Replicas []string
	// Limits bound and validate incoming requests before forwarding
	// (zero value = defaults, matching the replicas').
	Limits Limits
	// Retry paces failover rounds over the ring (nil = DefaultRetry).
	Retry *RetryPolicy
	// Logf receives forwarding diagnostics (nil = discard).
	Logf func(format string, args ...any)
}

// vnodesPerReplica spreads each replica over the ring so family load
// balances within ~10% without a rebalancing pass.
const vnodesPerReplica = 64

// NewRouter creates a coordinator over the given replica set.
func NewRouter(opt RouterOptions) (*Router, error) {
	if len(opt.Replicas) == 0 {
		return nil, fmt.Errorf("serve: router needs at least one replica")
	}
	replicas := make([]string, len(opt.Replicas))
	for i, r := range opt.Replicas {
		r = strings.TrimRight(r, "/")
		if r == "" {
			return nil, fmt.Errorf("serve: empty replica URL")
		}
		replicas[i] = r
	}
	rt := &Router{
		opt:    opt,
		limits: opt.Limits.withDefaults(),
		ring:   buildRing(replicas),
		// No overall timeout: extracts legitimately run for minutes, and
		// the requester's context bounds each forward.
		client: &http.Client{},
		logf:   opt.Logf,
		start:  time.Now(),
	}
	if rt.logf == nil {
		rt.logf = func(string, ...any) {}
	}
	return rt, nil
}

// Handler returns the coordinator's HTTP routes (mirroring a replica's,
// so clients need not know which they are talking to).
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /extract", rt.handleExtract)
	mux.HandleFunc("POST /sweep", rt.handleSweep)
	mux.HandleFunc("GET /jobs/{id}", rt.handleJob)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /stats", rt.handleStats)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	return mux
}

// handleExtract decodes enough to compute the family key, then forwards
// the buffered body to the ring owner.
func (rt *Router) handleExtract(w http.ResponseWriter, r *http.Request) {
	body, err := rt.readBody(r)
	if err != nil {
		rt.badRequests.Add(1)
		writeError(w, err)
		return
	}
	req, st, err := rt.limits.DecodeExtract(bytes.NewReader(body))
	if err != nil {
		rt.badRequests.Add(1)
		writeError(w, err)
		return
	}
	opt, err := PipelineOptions(req.Backend, req.Precond, req.Tol)
	if err != nil {
		rt.badRequests.Add(1)
		writeError(w, err)
		return
	}
	rt.forward(w, r, batch.FamilyKey(st, req.EdgeM, opt), "/extract", body, false)
}

// handleSweep routes a whole sweep by its first variant's family (a
// sweep IS a family — that is what makes affinity worth having);
// template sweeps carry no geometry and hash on the solve options.
func (rt *Router) handleSweep(w http.ResponseWriter, r *http.Request) {
	body, err := rt.readBody(r)
	if err != nil {
		rt.badRequests.Add(1)
		writeError(w, err)
		return
	}
	req, sts, err := rt.limits.DecodeSweep(bytes.NewReader(body))
	if err != nil {
		rt.badRequests.Add(1)
		writeError(w, err)
		return
	}
	opt, err := PipelineOptions(req.Backend, req.Precond, req.Tol)
	if err != nil {
		rt.badRequests.Add(1)
		writeError(w, err)
		return
	}
	var key string
	if len(sts) > 0 {
		key = batch.FamilyKey(sts[0], req.EdgeM, opt)
	} else {
		key = batch.FamilyKey(&geom.Structure{}, req.EdgeM, opt) + "-template"
	}
	rt.forward(w, r, key, "/sweep", body, true)
}

// handleJob fans the lookup out over the replica set: job ids are
// replica-local and the router deliberately keeps no per-job state (a
// restarted router must not orphan live jobs).
func (rt *Router) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	for _, replica := range rt.ring.replicas {
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, replica+"/jobs/"+id, nil)
		if err != nil {
			continue
		}
		resp, err := rt.client.Do(req)
		if err != nil {
			rt.logf("serve: router: jobs/%s on %s: %v", id, replica, err)
			continue
		}
		if resp.StatusCode == http.StatusNotFound {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			continue
		}
		relay(w, resp)
		return
	}
	writeError(w, &RequestError{Code: CodeNotFound, Message: fmt.Sprintf("job %q not found on any replica", id)})
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "role": "router", "replicas": len(rt.ring.replicas)})
}

// RouterStats is the coordinator's GET /stats payload.
type RouterStats struct {
	UptimeSec   float64  `json:"uptime_sec"`
	Replicas    []string `json:"replicas"`
	Forwarded   uint64   `json:"forwarded"`
	Failovers   uint64   `json:"failovers"`
	Unavailable uint64   `json:"unavailable"`
	BadRequests uint64   `json:"bad_requests"`
}

// Stats snapshots the coordinator counters.
func (rt *Router) Stats() RouterStats {
	return RouterStats{
		UptimeSec:   time.Since(rt.start).Seconds(),
		Replicas:    rt.ring.replicas,
		Forwarded:   rt.forwarded.Load(),
		Failovers:   rt.failovers.Load(),
		Unavailable: rt.unavailable.Load(),
		BadRequests: rt.badRequests.Load(),
	}
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, rt.Stats())
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := rt.Stats()
	var b strings.Builder
	writeGauge(&b, "parbem_router_uptime_seconds", "Seconds since the router started.", st.UptimeSec)
	writeGauge(&b, "parbem_router_replicas", "Configured replica count.", float64(len(st.Replicas)))
	writeCounter(&b, "parbem_router_forwarded_total", "Requests forwarded to a replica.", st.Forwarded)
	writeCounter(&b, "parbem_router_failovers_total", "Forwards that left the owning replica for a ring successor.", st.Failovers)
	writeCounter(&b, "parbem_router_unavailable_total", "Requests that failed on every replica.", st.Unavailable)
	writeCounter(&b, "parbem_router_bad_requests_total", "Requests rejected at decode time.", st.BadRequests)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte(b.String()))
}

// readBody buffers the request body under the admission cap (the body
// must replay across failover attempts).
func (rt *Router) readBody(r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(io.LimitReader(r.Body, rt.limits.MaxBodyBytes+1))
	if err != nil {
		return nil, badRequest("reading body: %v", err)
	}
	if int64(len(body)) > rt.limits.MaxBodyBytes {
		return nil, badRequest("body exceeds the %d-byte limit", rt.limits.MaxBodyBytes)
	}
	return body, nil
}

// forward posts body to the family's owning replica, walking the ring's
// successors (then further rounds, with backoff) on transport errors
// and retryable statuses. The first acceptable response relays to the
// client verbatim — for streaming endpoints the decision is made on the
// status line, before any payload byte is committed.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, key, path string, body []byte, stream bool) {
	candidates := rt.ring.candidates(key)
	pol := rt.opt.Retry
	if pol == nil {
		pol = DefaultRetry
	}
	rounds := pol.MaxAttempts
	if rounds <= 0 {
		rounds = DefaultRetry.MaxAttempts
	}
	base, maxWait := pol.BaseDelay, pol.MaxDelay
	if base <= 0 {
		base = DefaultRetry.BaseDelay
	}
	if maxWait <= 0 {
		maxWait = DefaultRetry.MaxDelay
	}
	var lastResp *http.Response
	for round := 1; round <= rounds; round++ {
		for i, replica := range candidates {
			req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, replica+path, bytes.NewReader(body))
			if err != nil {
				writeError(w, &RequestError{Code: CodeInternal, Message: err.Error()})
				return
			}
			req.Header.Set("Content-Type", "application/json")
			if tenant := r.Header.Get("X-Tenant"); tenant != "" {
				req.Header.Set("X-Tenant", tenant)
			}
			resp, err := rt.client.Do(req)
			if err != nil {
				rt.logf("serve: router: %s on %s: %v", path, replica, err)
				if i == 0 && round == 1 {
					rt.failovers.Add(1)
				}
				continue
			}
			if !retryableStatus(resp.StatusCode) {
				rt.forwarded.Add(1)
				if stream {
					relayStream(w, resp)
				} else {
					relay(w, resp)
				}
				return
			}
			// Retryable rejection: remember the most recent one so the
			// client sees a real replica answer if every round fails.
			if lastResp != nil {
				io.Copy(io.Discard, io.LimitReader(lastResp.Body, 4096))
				lastResp.Body.Close()
			}
			lastResp = resp
			if i == 0 && round == 1 {
				rt.failovers.Add(1)
			}
		}
		if round < rounds {
			wait, _ := backoffWait(base, maxWait, round, 0)
			select {
			case <-time.After(wait):
			case <-r.Context().Done():
				rt.unavailable.Add(1)
				writeError(w, &RequestError{Code: CodeInternal, Message: "request cancelled during failover"})
				return
			}
		}
	}
	rt.unavailable.Add(1)
	if lastResp != nil {
		relay(w, lastResp)
		return
	}
	writeError(w, &RequestError{Code: CodeInternal,
		Message: fmt.Sprintf("all %d replicas unreachable", len(candidates))})
}

// retryableStatus mirrors the client's retryable(): backpressure and
// server-side failures are worth another replica; everything else would
// fail identically anywhere.
func retryableStatus(code int) bool {
	return code == http.StatusTooManyRequests || code >= 500
}

// relay copies a replica response to the client verbatim.
func relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	copyRelayHeaders(w, resp)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// relayStream is relay with per-chunk flushing so NDJSON sweep points
// reach the client as the replica emits them.
func relayStream(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	copyRelayHeaders(w, resp)
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

func copyRelayHeaders(w http.ResponseWriter, resp *http.Response) {
	for _, h := range []string{"Content-Type", "Retry-After", "Location"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
}

// ring is a consistent-hash ring over the replica set: vnodesPerReplica
// points per replica, placement by fnv-1a of the family key.
type ring struct {
	replicas []string
	points   []ringPoint // sorted by hash
}

type ringPoint struct {
	hash    uint64
	replica int32
}

func buildRing(replicas []string) ring {
	r := ring{replicas: replicas}
	r.points = make([]ringPoint, 0, len(replicas)*vnodesPerReplica)
	for i, rep := range replicas {
		for v := 0; v < vnodesPerReplica; v++ {
			r.points = append(r.points, ringPoint{
				hash:    fmix64(fnv64a(fmt.Sprintf("%s#%d", rep, v))),
				replica: int32(i),
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].replica < r.points[b].replica
	})
	return r
}

// candidates returns every replica ordered by ring walk from the key's
// position: the owner first, then each distinct successor — the
// failover order.
func (r *ring) candidates(key string) []string {
	h := fmix64(fnv64a(key))
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, len(r.replicas))
	seen := make(map[int32]bool, len(r.replicas))
	for i := 0; i < len(r.points) && len(out) < len(r.replicas); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.replica] {
			seen[p.replica] = true
			out = append(out, r.replicas[p.replica])
		}
	}
	return out
}

// owner returns the key's owning replica (diagnostics and tests).
func (r *ring) owner(key string) string { return r.candidates(key)[0] }

func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// fmix64 is the murmur3 finalizer. Raw FNV-1a of vnode labels that
// differ only in a short suffix leaves the suffix bytes under-mixed —
// each replica's vnodes then cluster into a few tight arcs and the
// ring balances terribly. The finalizer's full avalanche restores a
// uniform spread.
func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
