package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"parbem/internal/geom"
)

// TestServeConcurrentSoak fires concurrent mixed-backend /extract and
// /sweep traffic at one server (run under -race in CI) and asserts
//
//   - every request succeeds and each goroutine's repeated identical
//     request returns bitwise-identical results (the plan cache serves
//     the same artifacts; dense-direct sweep reuse is exact), and
//   - the /stats counters balance: nothing lost, nothing double-counted.
//
// Family-plan interleaving hazards are part of the design: two
// goroutines share the dense sweep family on purpose, and the fmm
// extract goroutines use distinct tolerances so each owns its family
// plan (same-family alternation would legitimately warm-start to
// different-in-the-ulps results).
func TestServeConcurrentSoak(t *testing.T) {
	repeats := 3
	if testing.Short() {
		repeats = 2
	}
	s, c := startServer(t, Options{Workers: 2, WorkerBudget: 1, Runners: 2, QueueDepth: 128})
	ctx := context.Background()

	bus := geom.DefaultBus(2, 2).Build()

	// Bodies run on spawned goroutines, so they report failures as
	// errors instead of calling t.Fatal.
	extractBody := func(req *ExtractRequest) func() (string, error) {
		return func() (string, error) {
			res, err := c.Extract(ctx, req)
			if err != nil {
				return "", fmt.Errorf("extract: %w", err)
			}
			buf, _ := json.Marshal(res.CFarads)
			return string(buf), nil
		}
	}
	asyncBody := func(req *ExtractRequest) func() (string, error) {
		return func() (string, error) {
			id, err := c.ExtractAsync(ctx, req)
			if err != nil {
				return "", fmt.Errorf("async: %w", err)
			}
			for deadline := time.Now().Add(time.Minute); ; {
				jr, err := c.Job(ctx, id)
				if err != nil {
					return "", fmt.Errorf("poll: %w", err)
				}
				if jr.Status == "failed" {
					return "", fmt.Errorf("job failed: %v", jr.Error)
				}
				if jr.Status == "done" {
					buf, _ := json.Marshal(jr.Result.CFarads)
					return string(buf), nil
				}
				if time.Now().After(deadline) {
					return "", fmt.Errorf("job stuck")
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
	}
	sweepBody := func(req *SweepRequest) func() (string, error) {
		return func() (string, error) {
			var pts []*SweepPoint
			tr, err := c.Sweep(ctx, req, func(p *SweepPoint) { pts = append(pts, p) })
			if err != nil {
				return "", fmt.Errorf("sweep: %w", err)
			}
			if tr.Failed != 0 {
				return "", fmt.Errorf("sweep failed points: %+v", tr)
			}
			comparable := make([]any, 0, len(pts))
			for _, p := range pts {
				var c [][]float64 // a template point has no extraction
				if p.ExtractResponse != nil {
					c = p.CFarads
				}
				comparable = append(comparable, []any{p.Index, c, p.Fit})
			}
			buf, _ := json.Marshal(comparable)
			return string(buf), nil
		}
	}

	const edge = 0.5e-6
	clients := []struct {
		name string
		body func() (string, error)
	}{
		{"dense-direct", extractBody(&ExtractRequest{
			Geometry: geoText(t, crossingAt(0.5e-6)), EdgeM: edge, Backend: "dense"})},
		{"dense-direct-twin", extractBody(&ExtractRequest{
			Geometry: geoText(t, crossingAt(0.5e-6)), EdgeM: edge, Backend: "dense"})},
		{"fmm-block", extractBody(&ExtractRequest{
			Geometry: geoText(t, crossingAt(0.5e-6)), EdgeM: edge,
			Backend: "fastcap", Precond: "block", Tol: 1e-6})},
		{"fmm-block-h7", extractBody(&ExtractRequest{
			Geometry: geoText(t, crossingAt(0.7e-6)), EdgeM: edge,
			Backend: "fastcap", Precond: "block", Tol: 2e-6})},
		{"auto-bus-async", asyncBody(&ExtractRequest{
			Geometry: geoText(t, bus), EdgeM: 1e-6, Backend: "auto"})},
		{"dense-sweep", sweepBody(&SweepRequest{
			EdgeM: edge, Backend: "dense",
			Variants: []string{geoText(t, crossingAt(0.45e-6)), geoText(t, crossingAt(0.55e-6))}})},
		{"dense-sweep-twin", sweepBody(&SweepRequest{
			EdgeM: edge, Backend: "dense",
			Variants: []string{geoText(t, crossingAt(0.45e-6)), geoText(t, crossingAt(0.55e-6))}})},
		{"template-sweep", sweepBody(&SweepRequest{
			EdgeM: edge, TemplateHs: []float64{0.4e-6, 0.6e-6}})},
	}

	// Disconnecting clients run alongside the healthy traffic: each
	// fires a synchronous request and hangs up after a staggered few
	// milliseconds. Their jobs may complete (solve won the race) or
	// book as cancelled — never as failed — and the admission counters
	// must still balance exactly.
	chaos := 6
	var wg sync.WaitGroup
	for i := 0; i < chaos; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cctx, cancel := context.WithTimeout(ctx, time.Duration(2+3*i)*time.Millisecond)
			defer cancel()
			if i%2 == 0 {
				_, _ = c.Extract(cctx, &ExtractRequest{
					Geometry: geoText(t, crossingAt(0.5e-6)), EdgeM: edge, Backend: "dense"})
			} else {
				_, _ = c.Sweep(cctx, &SweepRequest{
					EdgeM: edge, Backend: "dense",
					Variants: []string{geoText(t, crossingAt(0.45e-6)), geoText(t, crossingAt(0.55e-6))}}, nil)
			}
		}(i)
	}
	for _, cl := range clients {
		wg.Add(1)
		go func(name string, body func() (string, error)) {
			defer wg.Done()
			var first string
			for rep := 0; rep < repeats; rep++ {
				payload, err := body()
				if err != nil {
					t.Errorf("%s repeat %d: %v", name, rep, err)
					return
				}
				if rep == 0 {
					first = payload
					continue
				}
				if payload != first {
					t.Errorf("%s: repeat %d not bitwise-stable:\nfirst %s\n now  %s",
						name, rep, first, payload)
				}
			}
		}(cl.name, cl.body)
	}
	wg.Wait()

	// A disconnecting client's job can still be queued (HTTP handler
	// returned; the job is skipped when popped); wait for the gauges
	// to drain before balancing the books.
	var stats Stats
	for deadline := time.Now().Add(30 * time.Second); ; {
		stats = s.Stats()
		if stats.Queued == 0 && stats.Running == 0 &&
			stats.Completed+stats.Failed+stats.Cancelled == stats.Accepted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs never drained: %+v", stats)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// A disconnecting client may hang up before its request body even
	// finishes uploading, in which case the job is never admitted — so
	// chaos admissions are an upper bound, healthy ones exact.
	healthy, maxJobs := uint64(len(clients)*repeats), uint64(len(clients)*repeats+chaos)
	if stats.Accepted < healthy || stats.Accepted > maxJobs {
		t.Errorf("accepted %d jobs, want in [%d, %d] (lost or double-counted admissions)",
			stats.Accepted, healthy, maxJobs)
	}
	if stats.Completed+stats.Failed+stats.Cancelled != stats.Accepted {
		t.Errorf("accepted %d != completed %d + failed %d + cancelled %d",
			stats.Accepted, stats.Completed, stats.Failed, stats.Cancelled)
	}
	// Healthy traffic all completes; disconnects book as cancelled or
	// completed depending on the race — never failed.
	if stats.Completed < healthy {
		t.Errorf("completed %d, want >= %d (healthy traffic lost)", stats.Completed, healthy)
	}
	if stats.Failed != 0 {
		t.Errorf("failed %d, want 0 (client disconnects must book as cancelled)", stats.Failed)
	}
	if stats.Extracts+stats.Sweeps > stats.Accepted {
		t.Errorf("extracts %d + sweeps %d > %d admitted", stats.Extracts, stats.Sweeps, stats.Accepted)
	}
	wantPoints := uint64(3 * repeats * 2) // three healthy sweep clients x two points
	if stats.SweepPoints < wantPoints {
		t.Errorf("sweep points %d, want >= %d (dropped points on healthy traffic)", stats.SweepPoints, wantPoints)
	}
	if stats.SweepPointErrors != 0 {
		t.Errorf("%d sweep point errors on healthy traffic", stats.SweepPointErrors)
	}
	if stats.Engine.StateHits == 0 {
		t.Error("engine state cache never hit: requests are not sharing the plan cache")
	}
	if stats.RejectedQueueFull != 0 {
		t.Errorf("%d rejections with an empty 128-deep queue", stats.RejectedQueueFull)
	}
}
