package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload and every probe end to end on the 2x2
// bus. It asserts results and metric presence, never a time.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	var log bytes.Buffer
	if err := runSmoke(&log, 1, out); err != nil {
		t.Fatalf("%v\n%s", err, log.String())
	}
	for _, def := range workloadDefs {
		data, err := os.ReadFile(filepath.Join(out, "trace-"+def.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		if err := json.Unmarshal(data, &spans); err != nil || len(spans) == 0 {
			t.Fatalf("%s: trace file: %d spans, %v", def.name, len(spans), err)
		}
		for _, s := range spans {
			if s.End < s.Start || s.Name == "" {
				t.Fatalf("%s: bad span %+v", def.name, s)
			}
		}
	}
}

// TestCompare drives -compare on synthetic ledgers: within the bound,
// past it, and too noisy to tell.
func TestCompare(t *testing.T) {
	mk := func(opS []float64, failed int) *ledger {
		led := &ledger{Schema: ledgerSchema, Runs: len(opS), Workloads: map[string]*workloadLedger{}}
		wl := &workloadLedger{EndToEnd: map[string]*metricLedger{}, Attempted: 10, Failed: failed}
		for _, m := range endToEnd {
			vals := []float64{1, 1, 1}
			if m.Name == "op_s" {
				vals = opS
			}
			wl.EndToEnd[m.Name] = &metricLedger{Unit: m.Unit, Better: m.Better, Bound: m.Bound,
				Values: vals, summary: summarize(vals), Spread: iqrShare(vals)}
		}
		led.Workloads["panel_fmm"] = wl
		return led
	}
	write := func(name string, led *ledger) string {
		data, err := json.Marshal(led)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", mk([]float64{1.00, 1.01, 0.99, 1.00}, 0))
	for _, tc := range []struct {
		name      string
		b         *ledger
		regressed bool
		want      string
	}{
		{"within", mk([]float64{1.05, 1.04, 1.06, 1.05}, 0), false, verdictOK},
		{"better", mk([]float64{0.5, 0.5, 0.5, 0.5}, 0), false, verdictOK},
		{"regressed", mk([]float64{1.30, 1.31, 1.29, 1.30}, 0), true, verdictRegressed},
		{"unresolved", mk([]float64{0.8, 1.3, 0.9, 1.2}, 0), false, verdictUnresolved},
		{"failed ops", mk([]float64{1.00, 1.01, 0.99, 1.00}, 2), true, "failed ops"},
	} {
		var out bytes.Buffer
		regressed, err := compareLedgers(&out, base, write("b.json", tc.b))
		if err != nil {
			t.Fatal(err)
		}
		if regressed != tc.regressed || !bytes.Contains(out.Bytes(), []byte(tc.want)) {
			t.Errorf("%s: regressed=%v, output:\n%s", tc.name, regressed, out.String())
		}
	}
	// ops_per_s is better when higher, so a drop is what is worse; it has
	// no bound, so the drop is shown and not judged - until it is given one.
	a, b := mk([]float64{1, 1, 1}, 0), mk([]float64{1, 1, 1}, 0)
	ma, mb := a.Workloads["panel_fmm"].EndToEnd["ops_per_s"], b.Workloads["panel_fmm"].EndToEnd["ops_per_s"]
	mb.summary = summarize([]float64{0.7, 0.7, 0.7})
	if worse, v := verdict(ma, mb); v != verdictNotGated || !near(worse, 0.3) {
		t.Errorf("ops_per_s 1 -> 0.7, no bound: worse %v, %s", worse, v)
	}
	ma.Bound = 0.1
	if worse, v := verdict(ma, mb); v != verdictRegressed || !near(worse, 0.3) {
		t.Errorf("ops_per_s 1 -> 0.7, bound 10%%: worse %v, %s", worse, v)
	}
}
