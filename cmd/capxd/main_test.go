package main

// Crash-safety tests run capxd as a real subprocess: TestMain re-execs
// the test binary as the daemon when CAPXD_TEST_CHILD is set, so
// SIGKILL hits a genuine process with a genuine journal on disk.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"parbem/internal/geom"
	"parbem/internal/geomio"
	"parbem/internal/op"
	"parbem/internal/plan"
	"parbem/internal/serve"
	"parbem/internal/serve/journal"
)

func TestMain(m *testing.M) {
	if os.Getenv("CAPXD_TEST_CHILD") == "1" {
		os.Exit(run(os.Args[1:]))
	}
	os.Exit(m.Run())
}

const testEdge = 0.5e-6

// crossingGeo renders the crossing-pair variant at separation h in the
// wire format.
func crossingGeo(t *testing.T, h float64) string {
	t.Helper()
	sp := geom.DefaultCrossingPair()
	sp.H = h
	var sb strings.Builder
	if err := geomio.Write(&sb, sp.Build(), 0); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// refCap solves the same variant dense direct on a fresh one-variant
// plan: no reuse, no journal, no daemon.
func refCap(t *testing.T, h float64) [][]float64 {
	t.Helper()
	sp := geom.DefaultCrossingPair()
	sp.H = h
	pl, err := plan.New(plan.Options{MaxEdge: testEdge,
		Pipeline: op.Options{Backend: op.BackendDense, Direct: true}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := pl.Extract(sp.Build())
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]float64, res.C.Rows)
	for i := range rows {
		rows[i] = res.C.Row(i)
	}
	return rows
}

// capRelErr is the max relative entry error against the reference
// diagonal (parbem.CapError convention).
func capRelErr(got, ref [][]float64) float64 {
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

// daemon is one capxd subprocess under test.
type daemon struct {
	t      *testing.T
	cmd    *exec.Cmd
	logs   *bytes.Buffer
	base   string
	reaped bool
}

// startDaemon launches the re-exec'd capxd on a random port and waits
// for it to publish its bound address.
func startDaemon(t *testing.T, dataDir string, extra ...string) *daemon {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	args := append([]string{
		"-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-data-dir", dataDir, "-workers", "2", "-runners", "2",
	}, extra...)
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CAPXD_TEST_CHILD=1")
	logs := &bytes.Buffer{}
	cmd.Stdout, cmd.Stderr = logs, logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{t: t, cmd: cmd, logs: logs}
	t.Cleanup(func() {
		if !d.reaped {
			d.cmd.Process.Kill()
			d.cmd.Wait()
		}
	})
	deadline := time.Now().Add(20 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			d.base = "http://" + string(b)
			return d
		}
		if time.Now().After(deadline) {
			t.Fatalf("capxd never published its address; logs:\n%s", logs)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (d *daemon) client() *serve.Client {
	c := serve.NewClient(d.base)
	c.Retry = serve.DefaultRetry
	return c
}

// kill SIGKILLs the daemon and reaps it.
func (d *daemon) kill() {
	d.t.Helper()
	d.cmd.Process.Kill()
	d.cmd.Wait()
	d.reaped = true
}

// wait reaps the daemon and returns its exit code, failing the test if
// it does not exit within timeout.
func (d *daemon) wait(timeout time.Duration) int {
	d.t.Helper()
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case <-done:
		d.reaped = true
		return d.cmd.ProcessState.ExitCode()
	case <-time.After(timeout):
		d.t.Fatalf("capxd did not exit within %v; logs:\n%s", timeout, d.logs)
		return -1
	}
}

// waitRunning polls /stats until at least one job is executing.
func (d *daemon) waitRunning(c *serve.Client) {
	d.t.Helper()
	ctx := context.Background()
	deadline := time.Now().Add(20 * time.Second)
	for {
		st, err := c.Stats(ctx)
		if err == nil && st.Running >= 1 {
			return
		}
		if time.Now().After(deadline) {
			d.t.Fatalf("no job started running (stats err %v); logs:\n%s", err, d.logs)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// pollDone polls GET /jobs/{id} until the job is terminal.
func pollDone(t *testing.T, c *serve.Client, id string) *serve.JobResponse {
	t.Helper()
	ctx := context.Background()
	deadline := time.Now().Add(60 * time.Second)
	for {
		jr, err := c.Job(ctx, id)
		if err != nil {
			t.Fatalf("job %s: %v", id, err)
		}
		switch jr.Status {
		case "done", "failed", "cancelled":
			return jr
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q", id, jr.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCapxdKillAndRecover is the tentpole acceptance test: SIGKILL a
// capxd mid-run, restart it on the same data dir, and every accepted
// job must reach a terminal state exactly once with results that agree
// with a direct pipeline solve.
func TestCapxdKillAndRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns capxd subprocesses")
	}
	dataDir := t.TempDir()

	// A 300ms pre-run sleep at the serve.run fault point guarantees the
	// SIGKILL lands while jobs are accepted-or-running, not finished.
	d1 := startDaemon(t, dataDir, "-faults", "serve.run:sleep=300ms")
	c1 := d1.client()
	ctx := context.Background()

	hs := []float64{0.35e-6, 0.45e-6, 0.55e-6}
	ids := make([]string, len(hs))
	for i, h := range hs {
		id, err := c1.ExtractAsync(ctx, &serve.ExtractRequest{
			Geometry: crossingGeo(t, h), EdgeM: testEdge, Backend: "dense",
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = id
	}
	d1.waitRunning(c1)
	d1.kill()

	// Restart on the same journal: unfinished jobs replay and run.
	d2 := startDaemon(t, dataDir)
	c2 := d2.client()
	for i, id := range ids {
		jr := pollDone(t, c2, id)
		if jr.Status != "done" || jr.Result == nil {
			t.Fatalf("job %s after recovery: status %q, error %+v", id, jr.Status, jr.Error)
		}
		if e := capRelErr(jr.Result.CFarads, refCap(t, hs[i])); e > 1e-10 {
			t.Errorf("job %s deviates from direct solve by %.3g (tol 1e-10)", id, e)
		}
	}
	st, err := c2.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Replayed == 0 {
		t.Error("restarted capxd replayed no jobs")
	}
	if st.Accepted != st.Completed+st.Failed+st.Cancelled {
		t.Errorf("job accounting broken across restart: accepted %d != %d completed + %d failed + %d cancelled",
			st.Accepted, st.Completed, st.Failed, st.Cancelled)
	}

	// Graceful exit, then audit the journal: every submitted job must
	// be terminal exactly once.
	if err := d2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := d2.wait(30 * time.Second); code != 0 {
		t.Fatalf("capxd exited %d after SIGTERM; logs:\n%s", code, d2.logs)
	}
	jr, entries, _, err := journal.Open(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	jr.Close()
	byID := make(map[string]string, len(entries))
	for _, e := range entries {
		if prev, dup := byID[e.JobID]; dup {
			t.Errorf("job %s journaled twice (%s and %s)", e.JobID, prev, e.State)
		}
		byID[e.JobID] = e.State
	}
	for _, id := range ids {
		if st := byID[id]; st != journal.StateCompleted {
			t.Errorf("job %s journaled as %q, want %q", id, st, journal.StateCompleted)
		}
	}
	for id, st := range byID {
		if !journal.Terminal(st) {
			t.Errorf("job %s left non-terminal (%q) after clean shutdown", id, st)
		}
	}
}

// TestCapxdSigtermDrain verifies the drain sequence: during the drain
// window /healthz flips to 503, new submissions are rejected with a
// structured draining error plus Retry-After, the running job still
// finishes, and the process exits 0 well within -drain-timeout.
func TestCapxdSigtermDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a capxd subprocess")
	}
	dataDir := t.TempDir()
	d := startDaemon(t, dataDir, "-faults", "serve.run:sleep=3s", "-drain-timeout", "30s")
	c := d.client()
	ctx := context.Background()

	id, err := c.ExtractAsync(ctx, &serve.ExtractRequest{
		Geometry: crossingGeo(t, 0.5e-6), EdgeM: testEdge, Backend: "dense",
	})
	if err != nil {
		t.Fatal(err)
	}
	d.waitRunning(c)
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	// The sleeping job holds the drain open ~3s: long enough to observe
	// the draining responses.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err != nil {
			t.Fatalf("healthz during drain: %v", err)
		}
		var body struct {
			Status string `json:"status"`
		}
		json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable && body.Status == "draining" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never reported draining (last %d %q)", resp.StatusCode, body.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}

	reqBody, _ := json.Marshal(&serve.ExtractRequest{
		Geometry: crossingGeo(t, 0.5e-6), EdgeM: testEdge, Backend: "dense", Async: true,
	})
	resp, err := http.Post(d.base+"/extract", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Error *serve.RequestError `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit during drain: HTTP %d, want 503", resp.StatusCode)
	}
	if env.Error == nil || env.Error.Code != serve.CodeDraining {
		t.Errorf("submit during drain: error %+v, want code %q", env.Error, serve.CodeDraining)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining rejection carries no Retry-After header")
	}

	if code := d.wait(30 * time.Second); code != 0 {
		t.Fatalf("capxd exited %d after SIGTERM; logs:\n%s", code, d.logs)
	}

	// The in-flight job was not sacrificed to the drain.
	jr, entries, _, err := journal.Open(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	jr.Close()
	state := ""
	for _, e := range entries {
		if e.JobID == id {
			state = e.State
		}
	}
	if state != journal.StateCompleted {
		t.Errorf("in-flight job journaled as %q after drain, want %q; logs:\n%s",
			state, journal.StateCompleted, d.logs)
	}
}

// TestCapxdPeersNeedRoute: -peers names a coordinator's replica set, so
// a replica given -peers without -route exits 2 and says why instead of
// running with a list it would never read.
func TestCapxdPeersNeedRoute(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-addr", "127.0.0.1:0", "-peers", "http://127.0.0.1:1")
	cmd.Env = append(os.Environ(), "CAPXD_TEST_CHILD=1")
	out, err := cmd.CombinedOutput()
	if code := cmd.ProcessState.ExitCode(); code != 2 {
		t.Fatalf("capxd -peers without -route exited %d (%v), want 2; output:\n%s", code, err, out)
	}
	if !strings.Contains(string(out), "-route") {
		t.Errorf("capxd -peers without -route does not say why; output:\n%s", out)
	}
}
