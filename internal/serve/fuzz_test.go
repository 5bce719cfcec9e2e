package serve

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"reflect"
	"testing"
	"time"

	"parbem/internal/geom"
)

// FuzzDecodeRequest drives arbitrary bytes through both request decode
// paths — the full HTTP JSON + geomio pipeline the server runs before
// touching any solver state. The boundary's contract: every rejection
// is a structured *RequestError, every acceptance satisfies the
// admission invariants, and nothing panics or allocates unboundedly
// (malformed panels, NaN coordinates, zero-area boxes, huge counts).
func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte(`{"geometry":"conductor a\nbox 0 0 0 1 1 1\nconductor b\nbox 0 0 2 1 1 3","edge_m":5e-7,"backend":"fastcap","precond":"block","tol":1e-6}`))
	f.Add([]byte(`{"geometry":"structure s\nunit 1e-6\nconductor a\nbox 0 0 0 1 1 1","edge_m":1e-6}`))
	f.Add([]byte(`{"geometry":"conductor a\nbox nan 0 0 1 1 1","edge_m":1e-6}`))
	f.Add([]byte(`{"geometry":"conductor a\nbox 0 0 0 1 1 0","edge_m":1e-6}`))
	f.Add([]byte(`{"geometry":"conductor a\nbox 0 0 0 1e9 1e9 1e9","edge_m":1e-9}`))
	f.Add([]byte(`{"geometry":"conductor a\nbox 0 0 0 inf 1 1","edge_m":1e-6}`))
	f.Add([]byte(`{"geometry":"conductor a\nwire q 0 0 0 1 1 1","edge_m":1e-6}`))
	f.Add([]byte(`{"edge_m":1e-6}`))
	f.Add([]byte(`{"variants":["conductor a\nbox 0 0 0 1 1 1\nconductor b\nbox 0 0 2 1 1 3"],"edge_m":5e-7}`))
	f.Add([]byte(`{"template_hs_m":[4e-7,6e-7],"edge_m":5e-7}`))
	f.Add([]byte(`{"template_hs_m":[4e-7],"variants":["x"],"edge_m":5e-7}`))
	f.Add([]byte(`{"template_hs_m":[-1],"edge_m":5e-7}`))
	f.Add([]byte(`{"geometry":"conductor a\nbox 0 0 0 1 1 1","edge_m":1e-6,"backend":"cuda"}`))
	f.Add([]byte(`{"geometry":"conductor a\nbox 0 0 0 1 1 1","edge_m":1e-6,"tol":1e308}`))
	f.Add([]byte(`{"geometry":"conductor a\nbox 0 0 0 1 1 1","edge_m":1e-6,"precision":"mixed"}`))
	f.Add([]byte(`{"variants":["conductor a\nbox 0 0 0 1 1 1"],"edge_m":1e-6,"precision":"fp64"}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"geometry":1}`))
	f.Add([]byte(`{"geometry":"conductor a\nbox 0 0 0 1 1 1","edge_m":1e-6,"precond":"jacobi"}`))
	f.Add([]byte(`{"template_hs_m":[4e-7],"edge_m":1e-9}`))
	f.Add([]byte(`{"geometry":"conductor a\nbox 0 0 0 1 1 1","edge_m":1e-6,"backend":"dense","precond":"block","tol":1e-6}`))
	f.Add([]byte(`{"variants":["conductor a\nbox 0 0 0 1 1 1"],"edge_m":1e-6,"backend":"pfft","tol":0.5}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var l Limits
		req, st, err := l.DecodeExtract(bytes.NewReader(data))
		if err != nil {
			re := new(RequestError)
			if !errors.As(err, &re) {
				t.Fatalf("extract decode rejected with unstructured error %T: %v", err, err)
			}
			if re.Code != CodeBadRequest {
				t.Fatalf("decode rejection code %q, want bad_request", re.Code)
			}
		} else {
			if req == nil || st == nil {
				t.Fatal("accepted extract decode returned nil request or structure")
			}
			// Acceptance implies the admission invariants hold.
			if err := checkStructure(st, req.EdgeM, l.withDefaults()); err != nil {
				t.Fatalf("accepted structure fails its own admission check: %v", err)
			}
			if !isFinite(req.EdgeM) || req.EdgeM <= 0 {
				t.Fatalf("accepted non-positive edge %v", req.EdgeM)
			}
			if p := req.Precision; p != "" && p != "auto" && p != "fp64" {
				t.Fatalf("accepted precision %q: every solve runs fp64", p)
			}
			if p := req.Precond; p != "" && p != "auto" && p != "block" {
				t.Fatalf("accepted precond %q: every Krylov solve is block-Jacobi", p)
			}
			if want, err := PipelineOptions(req.Backend, req.Precond, req.Tol); err != nil || !reflect.DeepEqual(req.opt, want) {
				t.Fatalf("accepted extract carries options %+v, want %+v (%v)", req.opt, want, err)
			}
		}

		sreq, sts, err := l.DecodeSweep(bytes.NewReader(data))
		if err != nil {
			re := new(RequestError)
			if !errors.As(err, &re) {
				t.Fatalf("sweep decode rejected with unstructured error %T: %v", err, err)
			}
		} else {
			if sreq == nil {
				t.Fatal("accepted sweep decode returned nil request")
			}
			if (len(sreq.Variants) == 0) == (len(sreq.TemplateHs) == 0) {
				t.Fatal("accepted sweep without exactly one mode")
			}
			if want, err := PipelineOptions(sreq.Backend, sreq.Precond, sreq.Tol); err != nil || !reflect.DeepEqual(sreq.opt, want) {
				t.Fatalf("accepted sweep carries options %+v, want %+v (%v)", sreq.opt, want, err)
			}
			if p := sreq.Precision; p != "" && p != "auto" && p != "fp64" {
				t.Fatalf("accepted sweep precision %q: every solve runs fp64", p)
			}
			for _, st := range sts {
				if err := checkStructure(st, sreq.EdgeM, l.withDefaults()); err != nil {
					t.Fatalf("accepted variant fails its own admission check: %v", err)
				}
			}
			for _, h := range sreq.TemplateHs {
				if !isFinite(h) || h <= 0 {
					t.Fatalf("accepted non-finite template separation %v", h)
				}
			}
			if len(sreq.TemplateHs) > 0 {
				if err := checkStructure(geom.DefaultCrossingPair().Build(), sreq.EdgeM, l.withDefaults()); err != nil {
					t.Fatalf("accepted template sweep's crossing pair fails the admission check: %v", err)
				}
			}
		}
	})
}

// FuzzRetryAdvice drives any status, Retry-After header and body through
// the client's retry path — decodeError, retryAfterOf, backoffWait —
// and checks the wait's contract: it lies in [min(base/2, maxWait),
// maxWait] whatever the server sends, and advice at or above maxWait is
// honored at exactly maxWait.
func FuzzRetryAdvice(f *testing.F) {
	f.Add(429, "3", []byte(`{"error":{"code":"queue_full","message":"full","retry_after_sec":2}}`), uint16(1))
	f.Add(503, "", []byte(`{"error":{"code":"draining","message":"bye","retry_after_sec":9.3e9}}`), uint16(2))
	f.Add(503, "9223372037", []byte(`upstream gone`), uint16(1))
	f.Add(429, "18446744074", []byte(`{"error":{"code":"rate_limited","message":"slow"}}`), uint16(3))
	f.Add(503, "99999999999999999999", []byte(``), uint16(60))
	f.Add(429, "-3", []byte(`{"error":{"code":"queue_full","retry_after_sec":-1}}`), uint16(1))
	f.Add(500, "Tue, 29 Feb", []byte(`{"error":null}`), uint16(9))
	f.Add(429, "0", []byte(`{"error":{"code":"queue_full","retry_after_sec":1e-12}}`), uint16(1))

	const base, maxWait = 100 * time.Millisecond, 10 * time.Second
	f.Fuzz(func(t *testing.T, status int, header string, body []byte, attempt uint16) {
		resp := &http.Response{
			StatusCode: status,
			Header:     http.Header{"Retry-After": {header}},
			Body:       io.NopCloser(bytes.NewReader(body)),
		}
		advice := retryAfterOf(decodeError(resp))
		wait, honored := backoffWait(base, maxWait, int(attempt)+1, advice)
		if floor := min(base/2, maxWait); wait < floor || wait > maxWait {
			t.Fatalf("wait %v outside [%v, %v] (advice %v)", wait, floor, maxWait, advice)
		}
		if advice >= maxWait && (wait != maxWait || !honored) {
			t.Fatalf("advice %v: wait %v honored %v, want %v true", advice, wait, honored, maxWait)
		}
	})
}
