package parbem

import (
	"encoding/json"
	"os"
	"testing"

	"parbem/internal/linalg"
)

// TestTemplateFillMatchesPinnedParent holds the symmetry-class fill to
// the capacitance matrices the Serial backend produced at commit 9e2ed43,
// where every template pair was integrated at its absolute coordinates.
// The lattice moves coordinates by at most 2^-40 of the structure and a
// class's canonical member is an isometric image of the pair, so the two
// agree far inside 1e-9 (the benchmark's own check on the 16x16 bus is
// 1e-8). The pair counts are the far gate's, which symmetry classes do not
// touch; the class counts must stay below what a 16-element subgroup of
// the 48 isometries reaches (translations alone: 162 / 4 553 / 19 000).
func TestTemplateFillMatchesPinnedParent(t *testing.T) {
	raw, err := os.ReadFile("testdata/template_serial_9e2ed43.json")
	if err != nil {
		t.Fatal(err)
	}
	var pin struct {
		Cases map[string][][]float64 `json:"c_farads"`
	}
	if err := json.Unmarshal(raw, &pin); err != nil {
		t.Fatal(err)
	}
	cases := map[string]struct {
		st                      *Structure
		far, near, classesBelow int64
	}{
		"bus4x4":   {NewBus(4, 4).Build(), 0, 10440, 1677},
		"bus8x8":   {NewBus(8, 8).Build(), 2328, 113112, 6467},
		"crossing": {NewCrossingPair().Build(), 0, 171, 102},
	}
	for name, c := range cases {
		rows := pin.Cases[name]
		if len(rows) == 0 {
			t.Fatalf("%s: not in the pinned file", name)
		}
		ref := linalg.NewDense(len(rows), len(rows))
		for i, r := range rows {
			copy(ref.Row(i), r)
		}
		res, err := Extract(c.st, Options{Backend: Serial})
		if err != nil {
			t.Fatal(err)
		}
		e := CapError(res.C, ref)
		t.Logf("%s: CapError vs parent %.3g (%d classes for %d near pairs)",
			name, e, res.Fill.ClassesIntegrated, res.Fill.PairsNear)
		if e > 1e-9 {
			t.Errorf("%s: CapError vs the parent commit's matrix = %g, limit 1e-9", name, e)
		}
		if v := CheckMaxwell(res.C, 0); len(v) > 0 {
			t.Errorf("%s: not of Maxwell form: %v", name, v)
		}
		if f := res.Fill; f.PairsFar != c.far || f.PairsNear != c.near || f.ClassesIntegrated >= c.classesBelow {
			t.Errorf("%s: %d far and %d near pairs in %d classes, want %d and %d in fewer than %d",
				name, f.PairsFar, f.PairsNear, f.ClassesIntegrated, c.far, c.near, c.classesBelow)
		}
	}
}
