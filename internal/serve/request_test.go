package serve

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestTemplateSweepPanelBudget: a template sweep panelizes the crossing
// pair at edge_m, so the panel budget applies to it at decode time, before
// anything is allocated — at a replica and at a Router, which forwards
// nothing. At edge 1e-9 the pair estimates ~62 000 000 panels, at 1e-8
// ~620 000, both over the default limit of 200 000; at 5e-7 it fits.
func TestTemplateSweepPanelBudget(t *testing.T) {
	for _, body := range []string{
		`{"template_hs_m":[4e-7],"edge_m":1e-9}`,
		`{"template_hs_m":[4e-7,6e-7],"edge_m":1e-8}`,
	} {
		_, _, err := Limits{}.DecodeSweep(strings.NewReader(body))
		re := new(RequestError)
		if !errors.As(err, &re) || re.Code != CodeBadRequest || !strings.Contains(re.Message, "panels") {
			t.Errorf("%s: got %v, want a bad_request over the panel limit", body, err)
		}
	}
	if _, _, err := (Limits{}).DecodeSweep(strings.NewReader(`{"template_hs_m":[4e-7],"edge_m":5e-7}`)); err != nil {
		t.Errorf("a template sweep at 5e-7 is rejected: %v", err)
	}

	a := newFakeReplica("a", 200)
	defer a.srv.Close()
	rt := routerFor(t, a)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	_, err := NewClient(front.URL).Sweep(context.Background(), &SweepRequest{TemplateHs: []float64{4e-7}, EdgeM: 1e-9},
		func(*SweepPoint) { t.Error("a rejected sweep streamed a point") })
	re := new(RequestError)
	if !errors.As(err, &re) || re.Code != CodeBadRequest {
		t.Errorf("router: got %v, want a bad_request", err)
	}
	if hits := a.drain(); hits != 0 {
		t.Errorf("the router forwarded %d over-budget template sweeps", hits)
	}
}

// TestUnknownBackendNamesEvery: the 400 for an unknown backend lists every
// backend PipelineOptions accepts.
func TestUnknownBackendNamesEvery(t *testing.T) {
	_, err := PipelineOptions("cuda", "", 0)
	re := new(RequestError)
	if !errors.As(err, &re) || re.Code != CodeBadRequest {
		t.Fatalf("got %v, want a bad_request", err)
	}
	for _, name := range []string{"auto", "dense", "fastcap", "fmm", "pfft"} {
		if _, err := PipelineOptions(name, "", 0); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if !strings.Contains(re.Message, name) {
			t.Errorf("the 400 %q does not name %s", re.Message, name)
		}
	}
}
