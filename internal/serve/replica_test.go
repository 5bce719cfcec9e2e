package serve

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parbem/internal/batch"
	"parbem/internal/geom"
)

// replicaT is one in-process replica: a Server behind an httptest
// listener.
type replicaT struct {
	srv *Server
	ts  *httptest.Server
}

// openReplica starts a replica over dataDir, its artifact store in
// dataDir/artifacts as capxd lays it out.
func openReplica(t *testing.T, dataDir string) *replicaT {
	t.Helper()
	s, err := Open(Options{
		Workers:     2,
		DataDir:     dataDir,
		ArtifactDir: filepath.Join(dataDir, "artifacts"),
	})
	if err != nil {
		t.Fatalf("opening replica: %v", err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return &replicaT{srv: s, ts: ts}
}

// close stops the replica: in-flight connections reset, the listener
// goes away, the server shuts down.
func (r *replicaT) close() {
	r.ts.CloseClientConnections()
	r.ts.Close()
	r.srv.Close()
}

// barsN builds a structurally distinct family: n parallel bar
// conductors. Families differ by conductor count, so each routes (and
// caches) independently.
func barsN(n int) *geom.Structure {
	st := &geom.Structure{Name: fmt.Sprintf("bars-%d", n)}
	for i := 0; i < n; i++ {
		y := float64(i) * 2e-6
		st.Conductors = append(st.Conductors, &geom.Conductor{
			Name: fmt.Sprintf("bar%d", i),
			Boxes: []geom.Box{{
				Min: geom.Vec3{X: 0, Y: y, Z: 0},
				Max: geom.Vec3{X: 4e-6, Y: y + 1e-6, Z: 1e-6},
			}},
		})
	}
	return st
}

// metricValue extracts a counter value from Prometheus text exposition.
func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, name+" ") {
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, name+" "), 64)
			if err != nil {
				t.Fatalf("parsing %s: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("/metrics has no %s sample", name)
	return 0
}

// TestReplicaRestartAdoptsDiskArtifacts is the artifact store's
// service-level promise: a replica restarted over the artifact
// directory of one that served a family adopts the stored stages
// instead of integrating them again — visible as store hits on Stats,
// GET /stats and /metrics — and answers with the same C.
func TestReplicaRestartAdoptsDiskArtifacts(t *testing.T) {
	dataDir := t.TempDir()
	req := &ExtractRequest{Geometry: geoText(t, crossingAt(0.5e-6)), EdgeM: 0.5e-6, Backend: "dense"}

	first := openReplica(t, dataDir)
	ref, err := NewClient(first.ts.URL).Extract(context.Background(), req)
	if err != nil {
		t.Fatalf("warming the first replica: %v", err)
	}
	if a := first.srv.Stats().Artifacts; a == nil || a.Puts == 0 {
		t.Fatalf("first replica persisted no artifacts: %+v", a)
	}
	first.close()

	restarted := openReplica(t, dataDir)
	c := NewClient(restarted.ts.URL)
	got, err := c.Extract(context.Background(), req)
	if err != nil {
		t.Fatalf("extract on the restarted replica: %v", err)
	}
	if e := capError(got.CFarads, ref.CFarads); e > 1e-10 {
		t.Errorf("restarted replica's result diverges from the first: capError %g", e)
	}

	st := restarted.srv.Stats()
	if st.Artifacts == nil || st.Artifacts.Hits < 1 {
		t.Errorf("Stats().Artifacts = %+v, want hits >= 1 (the restart should read the stored stages)", st.Artifacts)
	}
	// The same hits must be visible through both observability surfaces.
	var stats Stats
	if err := c.get(context.Background(), "/stats", &stats); err != nil {
		t.Fatalf("GET /stats: %v", err)
	}
	if stats.Artifacts == nil || stats.Artifacts.Hits < 1 {
		t.Errorf("/stats artifacts = %+v, want hits >= 1", stats.Artifacts)
	}
	resp, err := http.Get(restarted.ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if v := metricValue(t, string(body), "parbem_artifact_hits_total"); v < 1 {
		t.Errorf("parbem_artifact_hits_total = %g, want >= 1", v)
	}

	// A stored artifact is read by its own replica only: no route
	// serves it to anyone else.
	ents, err := os.ReadDir(filepath.Join(dataDir, "artifacts"))
	if err != nil || len(ents) == 0 {
		t.Fatalf("artifact directory: %d entries, %v", len(ents), err)
	}
	key := strings.TrimSuffix(ents[0].Name(), ".art")
	resp, err = http.Get(restarted.ts.URL + "/artifacts/" + key)
	if err != nil {
		t.Fatalf("GET /artifacts/%s: %v", key, err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /artifacts/%s: HTTP %d, want 404", key, resp.StatusCode)
	}
}

// TestReplicaSetCoordinatorSoak runs the full topology under load: 3
// replicas behind the consistent-hash coordinator, several structurally
// distinct families in flight concurrently, one replica killed mid-run.
// It asserts that every routed result matches a direct single-server
// solve to 1e-10, that the kill costs zero failed client requests (the
// router absorbs it as failovers and the family rebuilds on its new
// owner), and that a replica sent a family it does not own rebuilds it.
func TestReplicaSetCoordinatorSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-replica soak is not a -short test")
	}

	// Direct reference solves from an isolated server: no artifacts, no
	// router.
	direct, err := Open(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	directTS := httptest.NewServer(direct.Handler())
	defer directTS.Close()
	dc := NewClient(directTS.URL)

	const edge = 0.5e-6
	type family struct {
		req *ExtractRequest
		ref [][]float64
		key string
	}
	opt, err := PipelineOptions("dense", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	var families []*family
	for n := 1; n <= 3; n++ {
		st := barsN(n)
		f := &family{
			req: &ExtractRequest{Geometry: geoText(t, st), EdgeM: edge, Backend: "dense"},
			key: batch.FamilyKey(st, edge, opt),
		}
		ref, err := dc.Extract(context.Background(), f.req)
		if err != nil {
			t.Fatalf("direct reference solve (bars-%d): %v", n, err)
		}
		f.ref = ref.CFarads
		families = append(families, f)
	}

	const nReplicas = 3
	reps := make([]*replicaT, nReplicas)
	urls := make([]string, nReplicas)
	for i := range reps {
		reps[i] = openReplica(t, t.TempDir())
		urls[i] = reps[i].ts.URL
	}

	rt, err := NewRouter(RouterOptions{
		Replicas: urls,
		Retry:    &RetryPolicy{MaxAttempts: 3, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	client := NewClient(front.URL)

	// Warm every family through the coordinator (each lands on its ring
	// owner and persists its artifacts there), checking routed results
	// against the direct references as we go.
	for i, f := range families {
		res, err := client.Extract(context.Background(), f.req)
		if err != nil {
			t.Fatalf("warm extract family %d via coordinator: %v", i, err)
		}
		if e := capError(res.CFarads, f.ref); e > 1e-10 {
			t.Fatalf("family %d routed result off by %g vs direct", i, e)
		}
	}

	// A family sent straight to a replica that does not own it is
	// rebuilt there: the replica's store misses and is written through.
	owner0 := rt.ring.owner(families[0].key)
	other := reps[0]
	if other.ts.URL == owner0 {
		other = reps[1]
	}
	before := *other.srv.Stats().Artifacts
	res, err := NewClient(other.ts.URL).Extract(context.Background(), families[0].req)
	if err != nil {
		t.Fatalf("non-owner extract: %v", err)
	}
	if e := capError(res.CFarads, families[0].ref); e > 1e-10 {
		t.Errorf("non-owner result off by %g vs direct", e)
	}
	if after := other.srv.Stats().Artifacts; after.Misses <= before.Misses || after.Puts <= before.Puts {
		t.Errorf("non-owner did not rebuild: artifact misses %d -> %d, puts %d -> %d",
			before.Misses, after.Misses, before.Puts, after.Puts)
	}

	// Soak: concurrent routed extracts across all families while the
	// owner of family 1 is killed mid-run. The router must absorb the
	// kill as failovers; the clients must see zero failures.
	victim := -1
	owner1 := rt.ring.owner(families[1].key)
	for i, u := range urls {
		if u == owner1 {
			victim = i
			break
		}
	}
	const iters = 6
	var wg sync.WaitGroup
	var failed atomic.Int64
	var maxErr sync.Mutex
	worstErr := 0.0
	killed := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < iters; n++ {
				f := families[(w+n)%len(families)]
				res, err := client.Extract(context.Background(), f.req)
				if err != nil {
					t.Errorf("worker %d iter %d: %v", w, n, err)
					failed.Add(1)
					continue
				}
				if e := capError(res.CFarads, f.ref); e > 1e-10 {
					maxErr.Lock()
					if e > worstErr {
						worstErr = e
					}
					maxErr.Unlock()
				}
				if w == 0 && n == 1 {
					// Kill the owner of family 1 mid-soak.
					reps[victim].close()
					close(killed)
				}
				if n == 1 && w != 0 {
					<-killed // everyone past iter 1 runs against the degraded set
				}
			}
		}(w)
	}
	wg.Wait()

	if got := failed.Load(); got != 0 {
		t.Errorf("%d client requests failed during the kill; want 0", got)
	}
	if worstErr > 0 {
		t.Errorf("routed results diverged up to %g from direct solves", worstErr)
	}
	if rt.Stats().Failovers == 0 {
		t.Error("router recorded no failovers despite a killed owner")
	}
	if rt.Stats().Unavailable != 0 {
		t.Errorf("router recorded %d unavailable requests; want 0", rt.Stats().Unavailable)
	}
}
