package main

import "testing"

// TestTable1Accuracy is the deterministic half of Table 1's reproduction
// rule: every technique kept must agree with the analytic expression to
// 1e-3 at the 512 probes (the speed half, a median speedup above 1 over
// row 0, is timed and read in REPRODUCTION.md, not asserted here). A
// kept technique that degrades fails here rather than in a table.
func TestTable1Accuracy(t *testing.T) {
	rows := table1()
	if len(rows) != 4 {
		t.Fatalf("table 1 has %d rows, want 4 (rows 0-3)", len(rows))
	}
	for _, r := range rows {
		t.Logf("%-33s max relative error %.3g", r.name, r.maxErr)
		if !(r.maxErr <= 1e-3) {
			t.Errorf("%s: max relative error %.3g at the probes, want <= 1e-3", r.name, r.maxErr)
		}
	}
}
