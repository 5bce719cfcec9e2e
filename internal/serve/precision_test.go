package serve

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestRequestPrecision pins the wire's precision field: every solve runs
// in float64, so "", auto and fp64 solve and answer "fp64", and mixed —
// or any other value — is a structured bad_request naming the accepted
// values, on /extract and /sweep (both modes) of a replica and through a
// Router, which rejects it without forwarding.
func TestRequestPrecision(t *testing.T) {
	s, c := startServer(t, Options{Workers: 1})
	geo := geoText(t, crossingAt(0.5e-6))
	ctx := context.Background()

	for _, p := range []string{"", "auto", "fp64"} {
		res, err := c.Extract(ctx, &ExtractRequest{Geometry: geo, EdgeM: 1e-6, Backend: "dense", Precision: p})
		if err != nil {
			t.Fatalf("precision %q: %v", p, err)
		}
		if res.Precision != "fp64" {
			t.Errorf("precision %q answered %q, want fp64", p, res.Precision)
		}
		var pts []*SweepPoint
		if _, err := c.Sweep(ctx, &SweepRequest{Variants: []string{geo}, EdgeM: 1e-6, Backend: "dense", Precision: p},
			func(pt *SweepPoint) { pts = append(pts, pt) }); err != nil {
			t.Fatalf("sweep at precision %q: %v", p, err)
		}
		if len(pts) != 1 || pts[0].Error != nil || pts[0].ExtractResponse == nil || pts[0].Precision != "fp64" {
			t.Errorf("sweep at precision %q streamed %+v, want one fp64 point", p, pts)
		}
	}

	a := newFakeReplica("a", 200)
	defer a.srv.Close()
	front := httptest.NewServer(routerFor(t, a).Handler())
	defer front.Close()
	routed := NewClient(front.URL)

	rejected := func(where, p string, err error) {
		t.Helper()
		re := new(RequestError)
		if !errors.As(err, &re) || re.Code != CodeBadRequest {
			t.Errorf("%s, precision %q: got %v, want a bad_request rejection", where, p, err)
			return
		}
		if !strings.Contains(re.Message, "auto") || !strings.Contains(re.Message, "fp64") {
			t.Errorf("%s, precision %q: message %q does not name the accepted values", where, p, re.Message)
		}
	}
	noPoint := func(*SweepPoint) { t.Error("a rejected sweep streamed a point") }
	before := s.Stats().BadRequests
	for _, p := range []string{"mixed", "fp32", "FP64"} {
		for _, cl := range []struct {
			where string
			c     *Client
		}{{"replica", c}, {"router", routed}} {
			_, err := cl.c.Extract(ctx, &ExtractRequest{Geometry: geo, EdgeM: 1e-6, Precision: p})
			rejected(cl.where+" /extract", p, err)
			_, err = cl.c.Sweep(ctx, &SweepRequest{Variants: []string{geo}, EdgeM: 1e-6, Precision: p}, noPoint)
			rejected(cl.where+" /sweep", p, err)
			_, err = cl.c.Sweep(ctx, &SweepRequest{TemplateHs: []float64{5e-7}, EdgeM: 1e-6, Precision: p}, noPoint)
			rejected(cl.where+" template /sweep", p, err)
		}
	}
	if got := s.Stats().BadRequests - before; got != 9 {
		t.Errorf("replica counted %d bad requests, want 9", got)
	}
	if s.Stats().Accepted != 6 {
		t.Errorf("replica admitted %d jobs, want the 6 fp64 ones", s.Stats().Accepted)
	}
	if hits := a.drain(); hits != 0 {
		t.Errorf("the router forwarded %d rejected requests", hits)
	}
}
