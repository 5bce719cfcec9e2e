package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestManifestMatchesTables keeps BENCHMARK.json, which the driver
// reads, in step with the tables the program reports from.
func TestManifestMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []endToEndMetric `json:"end_to_end"`
		PerLayer []layerMetric    `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the program's default window is %d", m.RunSeconds, runSeconds)
	}
	if !reflect.DeepEqual(m.Paths, []string{"bench"}) || !reflect.DeepEqual(m.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("command %v, paths %v", m.Command, m.Paths)
	}
	if len(m.Workloads) != len(gatedWorkloads) {
		t.Fatalf("%d workloads in the manifest, %d gated in the program", len(m.Workloads), len(gatedWorkloads))
	}
	for i, w := range m.Workloads {
		if def := gatedWorkloads[i]; w.Name != def.name || w.Why != def.why {
			t.Errorf("workload %d: manifest {%s, %q}, program {%s, %q}", i, w.Name, w.Why, def.name, def.why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	strip := func(ms []endToEndMetric) []endToEndMetric {
		out := append([]endToEndMetric(nil), ms...)
		for i := range out {
			out[i].Meaning = ""
		}
		return out
	}
	if !reflect.DeepEqual(m.EndToEnd, strip(gated())) {
		t.Errorf("end_to_end differs:\nmanifest %+v\nprogram  %+v", m.EndToEnd, strip(gated()))
	}
	var layers []layerMetric
	for _, l := range perLayer {
		layers = append(layers, layerMetric{Name: l.Name, Unit: l.Unit, Better: l.Better})
	}
	if !reflect.DeepEqual(m.PerLayer, layers) {
		t.Errorf("per_layer differs:\nmanifest %+v\nprogram  %+v", m.PerLayer, layers)
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics: over the contract's limits", len(perLayer), len(endToEnd))
	}
	seen := map[string]bool{}
	for _, e := range endToEnd {
		if e.Bound < 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
		if seen[e.Name] {
			t.Errorf("%s: name used twice", e.Name)
		}
		seen[e.Name] = true
	}
	for _, l := range perLayer {
		if seen[l.Name] {
			t.Errorf("%s: name used twice", l.Name)
		}
		seen[l.Name] = true
	}
}
