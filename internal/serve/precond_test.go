package serve

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestRequestPrecond pins the wire's precond field: every Krylov solve is
// block-Jacobi preconditioned, so "", auto and block solve, and block on
// the dense backend still asks for GMRES instead of the direct
// factorization (iterations > 0 against 0), with the response echoing the
// value asked for; none, jacobi or any other value is a structured
// bad_request naming the accepted values, on /extract and /sweep (both
// modes) of a replica and through a Router, which rejects it without
// forwarding.
func TestRequestPrecond(t *testing.T) {
	s, c := startServer(t, Options{Workers: 1})
	geo := geoText(t, crossingAt(0.5e-6))
	ctx := context.Background()

	for _, tc := range []struct {
		precond, echo string
		krylov        bool
	}{{"", "auto", false}, {"auto", "auto", false}, {"block", "block", true}} {
		res, err := c.Extract(ctx, &ExtractRequest{Geometry: geo, EdgeM: 1e-6, Backend: "dense", Precond: tc.precond})
		if err != nil {
			t.Fatalf("precond %q: %v", tc.precond, err)
		}
		if res.Precond != tc.echo {
			t.Errorf("precond %q echoed %q, want %q", tc.precond, res.Precond, tc.echo)
		}
		if (res.Iterations > 0) != tc.krylov {
			t.Errorf("dense, precond %q: %d iterations, want Krylov %v", tc.precond, res.Iterations, tc.krylov)
		}
		var pts []*SweepPoint
		if _, err := c.Sweep(ctx, &SweepRequest{Variants: []string{geo}, EdgeM: 1e-6, Backend: "dense", Precond: tc.precond},
			func(pt *SweepPoint) { pts = append(pts, pt) }); err != nil {
			t.Fatalf("sweep, precond %q: %v", tc.precond, err)
		}
		if len(pts) != 1 || pts[0].Error != nil || pts[0].ExtractResponse == nil || (pts[0].Iterations > 0) != tc.krylov {
			t.Errorf("sweep, precond %q streamed %+v, want one point, Krylov %v", tc.precond, pts, tc.krylov)
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
			t.Errorf("%s, precond %q: got %v, want a bad_request rejection", where, p, err)
			return
		}
		if !strings.Contains(re.Message, "auto") || !strings.Contains(re.Message, "block") {
			t.Errorf("%s, precond %q: message %q does not name the accepted values", where, p, re.Message)
		}
	}
	noPoint := func(*SweepPoint) { t.Error("a rejected sweep streamed a point") }
	before := s.Stats().BadRequests
	for _, p := range []string{"none", "jacobi", "block-jacobi"} {
		for _, cl := range []struct {
			where string
			c     *Client
		}{{"replica", c}, {"router", routed}} {
			_, err := cl.c.Extract(ctx, &ExtractRequest{Geometry: geo, EdgeM: 1e-6, Precond: p})
			rejected(cl.where+" /extract", p, err)
			_, err = cl.c.Sweep(ctx, &SweepRequest{Variants: []string{geo}, EdgeM: 1e-6, Precond: p}, noPoint)
			rejected(cl.where+" /sweep", p, err)
			_, err = cl.c.Sweep(ctx, &SweepRequest{TemplateHs: []float64{5e-7}, EdgeM: 1e-6, Precond: p}, noPoint)
			rejected(cl.where+" template /sweep", p, err)
		}
	}
	if got := s.Stats().BadRequests - before; got != 9 {
		t.Errorf("replica counted %d bad requests, want 9", got)
	}
	if s.Stats().Accepted != 6 {
		t.Errorf("replica admitted %d jobs, want the 6 accepted ones", s.Stats().Accepted)
	}
	if hits := a.drain(); hits != 0 {
		t.Errorf("the router forwarded %d rejected requests", hits)
	}
}
