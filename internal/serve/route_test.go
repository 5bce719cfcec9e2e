package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"parbem/internal/batch"
	"parbem/internal/geom"
)

// fakeReplica is a canned backend for router tests: it records which
// paths arrive and answers every POST with its own name so tests can
// tell which replica served a forwarded request. A /sweep it answers
// with 200 streams sweepPoints NDJSON point lines and a trailer, each
// flushed on its own; with step set, it writes the next line only once
// a token arrives on step, so a reader that receives a line before
// sending the token proves that line was relayed as it was flushed.
type fakeReplica struct {
	name   string
	status int // response status for POST endpoints
	srv    *httptest.Server
	hits   chan string // request paths, buffered
	step   chan struct{}
}

// sweepPoints is the number of point lines a fake replica's sweep
// streams before its trailer.
const sweepPoints = 3

// sweepLine is one NDJSON line of a fake replica's sweep: a point, or
// the trailer.
type sweepLine struct {
	Replica string `json:"replica"`
	Point   int    `json:"point"`
	Trailer bool   `json:"trailer,omitempty"`
}

func newFakeReplica(name string, status int) *fakeReplica {
	f := &fakeReplica{name: name, status: status, hits: make(chan string, 256)}
	f.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case f.hits <- r.URL.Path:
		default:
		}
		if strings.HasPrefix(r.URL.Path, "/jobs/") {
			if f.name == "jobowner" {
				writeJSON(w, http.StatusOK, map[string]any{"state": "done", "replica": f.name})
				return
			}
			writeError(w, &RequestError{Code: CodeNotFound, Message: "unknown job id"})
			return
		}
		io.Copy(io.Discard, r.Body)
		if r.URL.Path == "/sweep" && f.status == http.StatusOK {
			f.streamSweep(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(f.status)
		json.NewEncoder(w).Encode(map[string]string{"replica": f.name})
	}))
	return f
}

// streamSweep writes the fake sweep's lines, flushing each, and waits
// for a token on f.step between lines when step is set.
func (f *fakeReplica) streamSweep(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	for i := 0; i <= sweepPoints; i++ {
		if i > 0 && f.step != nil {
			select {
			case <-f.step:
			case <-r.Context().Done():
				return
			case <-time.After(5 * time.Second):
				return // the reader never saw the last line: end the stream short
			}
		}
		enc.Encode(sweepLine{Replica: f.name, Point: i, Trailer: i == sweepPoints})
		w.(http.Flusher).Flush()
	}
}

func (f *fakeReplica) drain() int {
	n := 0
	for {
		select {
		case <-f.hits:
			n++
		default:
			return n
		}
	}
}

func fastRetry() *RetryPolicy {
	return &RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
}

func routerFor(t *testing.T, replicas ...*fakeReplica) *Router {
	t.Helper()
	urls := make([]string, len(replicas))
	for i, f := range replicas {
		urls[i] = f.srv.URL
	}
	rt, err := NewRouter(RouterOptions{Replicas: urls, Retry: fastRetry()})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	return rt
}

func extractBody(t *testing.T, h float64) string {
	t.Helper()
	req := &ExtractRequest{Geometry: geoText(t, crossingAt(h)), EdgeM: 0.5e-6, Backend: "dense"}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func postExtract(t *testing.T, url, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url+"/extract", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /extract: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp, string(data)
}

// TestRingCandidates pins the ring contract: the candidate list covers
// every replica exactly once, starts at the owner, and is stable for a
// given key and replica set regardless of registration order.
func TestRingCandidates(t *testing.T) {
	replicas := []string{"http://a", "http://b", "http://c"}
	r := buildRing(replicas)
	for _, key := range []string{"fam-1", "fam-2", "fam-3", ""} {
		cand := r.candidates(key)
		if len(cand) != len(replicas) {
			t.Fatalf("key %q: %d candidates, want %d", key, len(cand), len(replicas))
		}
		seen := map[string]bool{}
		for _, c := range cand {
			if seen[c] {
				t.Fatalf("key %q: duplicate candidate %q", key, c)
			}
			seen[c] = true
		}
		if got := r.owner(key); got != cand[0] {
			t.Errorf("key %q: owner %q != first candidate %q", key, got, cand[0])
		}
	}
	// Registration order must not change placement.
	shuffled := buildRing([]string{"http://c", "http://a", "http://b"})
	for _, key := range []string{"fam-1", "fam-2", "fam-3"} {
		if a, b := r.owner(key), shuffled.owner(key); a != b {
			t.Errorf("key %q: owner depends on registration order (%q vs %q)", key, a, b)
		}
	}
}

// TestRingBalance checks the vnode count spreads ownership usefully: no
// replica of three owns less than 15% or more than 55% of 3000 keys.
func TestRingBalance(t *testing.T) {
	r := buildRing([]string{"http://a", "http://b", "http://c"})
	counts := map[string]int{}
	const n = 3000
	for i := 0; i < n; i++ {
		counts[r.owner(fmt.Sprintf("family-%d", i))]++
	}
	for rep, c := range counts {
		if c < n*15/100 || c > n*55/100 {
			t.Errorf("replica %s owns %d/%d keys — ring badly imbalanced", rep, c, n)
		}
	}
}

// TestRouterRoutesConsistently sends several distinct geometries twice
// each and asserts every family lands on the same replica both times —
// the whole point of routing by family key.
func TestRouterRoutesConsistently(t *testing.T) {
	a := newFakeReplica("a", http.StatusOK)
	b := newFakeReplica("b", http.StatusOK)
	defer a.srv.Close()
	defer b.srv.Close()
	rt := routerFor(t, a, b)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	for i := 0; i < 4; i++ {
		body := extractBody(t, 0.4e-6+float64(i)*0.03e-6)
		_, first := postExtract(t, front.URL, body)
		_, second := postExtract(t, front.URL, body)
		if first != second {
			t.Errorf("geometry %d routed to different replicas: %s vs %s", i, first, second)
		}
	}
	if got := rt.Stats().Forwarded; got != 8 {
		t.Errorf("forwarded = %d, want 8", got)
	}
	if got := rt.Stats().Failovers; got != 0 {
		t.Errorf("failovers = %d, want 0 with healthy replicas", got)
	}
}

// TestRouterFailover kills one replica (connection-refused) and checks
// every request still succeeds on the survivor, with the failover
// counter recording the detour.
func TestRouterFailover(t *testing.T) {
	dead := newFakeReplica("dead", http.StatusOK)
	alive := newFakeReplica("alive", http.StatusOK)
	defer alive.srv.Close()
	dead.srv.Close() // connection refused from now on
	rt := routerFor(t, dead, alive)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	for i := 0; i < 4; i++ {
		resp, body := postExtract(t, front.URL, extractBody(t, 0.4e-6+float64(i)*0.03e-6))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d, want 200", i, resp.StatusCode)
		}
		if !strings.Contains(body, "alive") {
			t.Fatalf("request %d served by %q, want the survivor", i, body)
		}
	}
	if rt.Stats().Unavailable != 0 {
		t.Errorf("unavailable = %d, want 0 (survivor handled everything)", rt.Stats().Unavailable)
	}
}

// TestRouterRetryableStatusFailsOver checks a 5xx from the owner moves
// the request to a successor instead of surfacing the error, while a
// non-retryable status passes through verbatim without a retry.
func TestRouterRetryableStatusFailsOver(t *testing.T) {
	broken := newFakeReplica("broken", http.StatusInternalServerError)
	healthy := newFakeReplica("healthy", http.StatusOK)
	defer broken.srv.Close()
	defer healthy.srv.Close()
	rt := routerFor(t, broken, healthy)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	resp, body := postExtract(t, front.URL, extractBody(t, 0.5e-6))
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "healthy") {
		t.Fatalf("got %d %q, want 200 from the healthy replica", resp.StatusCode, body)
	}

	// Non-retryable: both replicas answer 422; the router must relay it,
	// not spin through retry rounds (each replica sees exactly one try).
	u := newFakeReplica("u1", http.StatusUnprocessableEntity)
	v := newFakeReplica("u2", http.StatusUnprocessableEntity)
	defer u.srv.Close()
	defer v.srv.Close()
	rt2 := routerFor(t, u, v)
	front2 := httptest.NewServer(rt2.Handler())
	defer front2.Close()
	resp2, _ := postExtract(t, front2.URL, extractBody(t, 0.5e-6))
	if resp2.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("non-retryable status: got %d, want 422", resp2.StatusCode)
	}
	if hits := u.drain() + v.drain(); hits != 1 {
		t.Errorf("non-retryable response hit %d replicas, want exactly 1", hits)
	}
}

// TestRouterAllDown checks the router reports unavailability (rather
// than hanging or panicking) when no replica answers.
func TestRouterAllDown(t *testing.T) {
	a := newFakeReplica("a", http.StatusOK)
	b := newFakeReplica("b", http.StatusOK)
	a.srv.Close()
	b.srv.Close()
	rt := routerFor(t, a, b)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	resp, _ := postExtract(t, front.URL, extractBody(t, 0.5e-6))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("all-down status = %d, want 500", resp.StatusCode)
	}
	if rt.Stats().Unavailable == 0 {
		t.Error("unavailable counter did not record the total failure")
	}
}

// TestRouterRejectsBadRequests checks malformed bodies are rejected at
// the router without touching any replica.
func TestRouterRejectsBadRequests(t *testing.T) {
	a := newFakeReplica("a", http.StatusOK)
	defer a.srv.Close()
	rt := routerFor(t, a)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	for _, body := range []string{"{not json", `{"geometry":"box 1","edge_m":0}`} {
		resp, err := http.Post(front.URL+"/extract", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("body %q: status %d, want 400/422", body, resp.StatusCode)
		}
	}
	if hits := a.drain(); hits != 0 {
		t.Errorf("bad requests reached the replica %d times", hits)
	}
	if rt.Stats().BadRequests == 0 {
		t.Error("bad_requests counter not incremented")
	}
}

// TestRouterJobFanout checks GET /jobs/{id} finds a job that lives on
// one replica only, and 404s cleanly when nobody has it.
func TestRouterJobFanout(t *testing.T) {
	a := newFakeReplica("a", http.StatusOK)
	owner := newFakeReplica("jobowner", http.StatusOK)
	defer a.srv.Close()
	defer owner.srv.Close()
	rt := routerFor(t, a, owner)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	resp, err := http.Get(front.URL + "/jobs/j-123")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), "jobowner") {
		t.Errorf("job lookup: %d %q, want 200 from jobowner", resp.StatusCode, data)
	}
}

// TestRouterStatsAndMetrics smoke-tests the observability endpoints.
func TestRouterStatsAndMetrics(t *testing.T) {
	a := newFakeReplica("a", http.StatusOK)
	defer a.srv.Close()
	rt := routerFor(t, a)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	postExtract(t, front.URL, extractBody(t, 0.5e-6))
	var st RouterStats
	resp, err := http.Get(front.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding /stats: %v", err)
	}
	resp.Body.Close()
	if st.Forwarded != 1 || len(st.Replicas) != 1 {
		t.Errorf("stats = %+v, want forwarded=1 replicas=1", st)
	}

	resp, err = http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"parbem_router_forwarded_total 1", "parbem_router_replicas 1"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func sweepBody(t *testing.T, req *SweepRequest) string {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// postSweep posts a sweep through the router and reads its stream line
// by line, sending a token on step after every line but the trailer
// (step may be nil); a token no replica takes within 5 s fails the test.
func postSweep(t *testing.T, url, body string, step chan struct{}) (*http.Response, []sweepLine) {
	t.Helper()
	resp, err := http.Post(url+"/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /sweep: %v", err)
	}
	defer resp.Body.Close()
	var lines []sweepLine
	br := bufio.NewReader(resp.Body)
	for {
		text, err := br.ReadString('\n')
		if text != "" {
			var l sweepLine
			if jerr := json.Unmarshal([]byte(text), &l); jerr != nil {
				t.Fatalf("undecodable sweep line %q: %v", text, jerr)
			}
			lines = append(lines, l)
			if step != nil && !l.Trailer {
				select {
				case step <- struct{}{}:
				case <-time.After(5 * time.Second):
					t.Fatalf("sweep line %d arrived only after the replica gave up waiting for it to be read: the stream was not relayed line by line", len(lines)-1)
				}
			}
		}
		if err != nil {
			return resp, lines
		}
	}
}

// TestRouterSweepStreams checks POST /sweep through the router: the
// replica's NDJSON lines reach the client one at a time, in order and
// under the replica's Content-Type; a variant sweep routes by its first
// variant's family and a template sweep by its options; an undecodable
// body is a 400 that no replica sees.
func TestRouterSweepStreams(t *testing.T) {
	step := make(chan struct{})
	reps := []*fakeReplica{newFakeReplica("a", http.StatusOK), newFakeReplica("b", http.StatusOK), newFakeReplica("c", http.StatusOK)}
	for _, f := range reps {
		f.step = step
		defer f.srv.Close()
	}
	rt := routerFor(t, reps...)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	// serves posts a sweep and returns the replica that streamed it,
	// after checking the stream is whole and in order.
	serves := func(req *SweepRequest) string {
		t.Helper()
		resp, lines := postSweep(t, front.URL, sweepBody(t, req), step)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sweep: status %d, want 200", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Errorf("sweep: Content-Type %q, want the replica's application/x-ndjson", ct)
		}
		if len(lines) != sweepPoints+1 {
			t.Fatalf("sweep: %d lines, want %d points and a trailer", len(lines), sweepPoints)
		}
		for i, l := range lines {
			if l.Point != i || l.Trailer != (i == sweepPoints) || l.Replica != lines[0].Replica {
				t.Errorf("sweep line %d = %+v, want point %d of replica %s", i, l, i, lines[0].Replica)
			}
		}
		return lines[0].Replica
	}
	owner := func(key string) string {
		for _, f := range reps {
			if f.srv.URL == rt.ring.owner(key) {
				return f.name
			}
		}
		t.Fatalf("key %q has no owner", key)
		return ""
	}

	// Two sweeps whose first variants are one family (the crossing pair
	// at other separations) reach one replica, the family's owner.
	const edge = 0.5e-6
	first := serves(&SweepRequest{EdgeM: edge, Backend: "dense",
		Variants: []string{geoText(t, crossingAt(0.4e-6)), geoText(t, crossingAt(0.5e-6))}})
	second := serves(&SweepRequest{EdgeM: edge, Backend: "dense",
		Variants: []string{geoText(t, crossingAt(0.7e-6)), geoText(t, crossingAt(0.3e-6))}})
	if first != second {
		t.Errorf("one family's sweeps reached replicas %s and %s, want one", first, second)
	}
	opt, err := PipelineOptions("dense", "", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := owner(batch.FamilyKey(crossingAt(0.4e-6), edge, opt)); first != want {
		t.Errorf("variant sweep reached %s, want its family's owner %s", first, want)
	}

	// A template sweep carries no geometry: it routes by its options.
	for _, c := range []struct {
		backend string
		edge    float64
	}{{"dense", 0.5e-6}, {"fastcap", 0.5e-6}, {"dense", 0.3e-6}, {"pfft", 0.4e-6}} {
		opt, err := PipelineOptions(c.backend, "", "", 0)
		if err != nil {
			t.Fatal(err)
		}
		want := owner(batch.FamilyKey(&geom.Structure{}, c.edge, opt) + "-template")
		for _, hs := range [][]float64{{0.4e-6, 0.5e-6}, {0.8e-6}} {
			if got := serves(&SweepRequest{EdgeM: c.edge, Backend: c.backend, TemplateHs: hs}); got != want {
				t.Errorf("template sweep %s at edge %g, hs %v: reached %s, want %s", c.backend, c.edge, hs, got, want)
			}
		}
	}

	for _, f := range reps {
		f.drain()
	}
	before := rt.Stats().BadRequests
	resp, err := http.Post(front.URL+"/sweep", "application/json", strings.NewReader(`{"variants": [`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("undecodable sweep: status %d, want 400", resp.StatusCode)
	}
	if got := rt.Stats().BadRequests; got != before+1 {
		t.Errorf("bad_requests = %d after an undecodable sweep, want %d", got, before+1)
	}
	for _, f := range reps {
		if hits := f.drain(); hits != 0 {
			t.Errorf("undecodable sweep reached replica %s %d times", f.name, hits)
		}
	}
}

// TestRouterHealthz checks the coordinator answers its own health probe:
// 200, role router and the replica count, without asking a replica.
func TestRouterHealthz(t *testing.T) {
	a := newFakeReplica("a", http.StatusOK)
	b := newFakeReplica("b", http.StatusOK)
	defer a.srv.Close()
	defer b.srv.Close()
	front := httptest.NewServer(routerFor(t, a, b).Handler())
	defer front.Close()

	resp, err := http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct {
		Status   string `json:"status"`
		Role     string `json:"role"`
		Replicas int    `json:"replicas"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatalf("decoding /healthz: %v", err)
	}
	if resp.StatusCode != http.StatusOK || got.Status != "ok" || got.Role != "router" || got.Replicas != 2 {
		t.Errorf("/healthz = %d %+v, want 200 status ok, role router, 2 replicas", resp.StatusCode, got)
	}
	if hits := a.drain() + b.drain(); hits != 0 {
		t.Errorf("/healthz reached the replicas %d times", hits)
	}
}
