package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readLedger(path string) (*ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var led ledger
	if err := json.Unmarshal(data, &led); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if led.Schema != ledgerSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, led.Schema, ledgerSchema)
	}
	return &led, nil
}

// Verdicts of one workload x metric pairing.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"  // b's median is worse than a's by more than the bound
	verdictUnresolved = "unresolved" // the run-to-run spread is wider than the bound
	verdictNotGated   = "not gated"  // measured and shown; the metric has no bound
)

// verdict judges metric m going from a to b. worse is how much b's
// median is worse than a's as a share of a's (negative = better). A
// change counts as a regression when it exceeds the bound and the
// spread of either side; otherwise a spread wider than the bound leaves
// the pairing unresolved, not unchanged.
func verdict(a, b *metricLedger) (worse float64, v string) {
	if a.Median != 0 {
		worse = (b.Median - a.Median) / a.Median
	}
	if a.Better == "higher" {
		worse = -worse
	}
	spread := max(a.Spread, b.Spread)
	switch {
	case a.Bound == 0:
		return worse, verdictNotGated
	case worse > a.Bound && worse > spread:
		return worse, verdictRegressed
	case spread > a.Bound:
		return worse, verdictUnresolved
	}
	return worse, verdictOK
}

// compareLedgers prints, per workload x end-to-end metric, both medians,
// the relative change, the bound and the verdict, and reports whether
// anything regressed.
func compareLedgers(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readLedger(pathA)
	if err != nil {
		return false, err
	}
	b, err := readLedger(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "a: %s  commit %s, %d CPUs, %s, %d run(s)\n", pathA, a.Environment.Commit, a.Environment.NumCPU, a.Environment.GoVersion, a.Runs)
	fmt.Fprintf(w, "b: %s  commit %s, %d CPUs, %s, %d run(s)\n", pathB, b.Environment.Commit, b.Environment.NumCPU, b.Environment.GoVersion, b.Runs)
	if a.Environment.NumCPU != b.Environment.NumCPU || a.Environment.GoVersion != b.Environment.GoVersion {
		fmt.Fprintln(w, "warning: the two ledgers come from different machines or toolchains; times do not compare")
	}
	fmt.Fprintf(w, "\n%-11s %-16s %12s %12s %8s %7s %7s  %s\n", "workload", "metric", "a median", "b median", "worse", "spread", "bound", "verdict")
	for _, def := range workloadDefs {
		wa, wb := a.Workloads[def.name], b.Workloads[def.name]
		if wa == nil || wb == nil {
			continue
		}
		for _, m := range endToEnd {
			ma, mb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			if ma == nil || mb == nil {
				continue
			}
			worse, v := verdict(ma, mb)
			regressed = regressed || v == verdictRegressed
			if (wa.Noisy || wb.Noisy) && v != verdictNotGated {
				v += " (noisy)"
			}
			fmt.Fprintf(w, "%-11s %-16s %12.6g %12.6g %+7.1f%% %6.1f%% %6.0f%%  %s\n",
				def.name, m.Name, ma.Median, mb.Median, 100*worse, 100*max(ma.Spread, mb.Spread), 100*ma.Bound, v)
		}
		if wa.Failed+wb.Failed > 0 {
			fmt.Fprintf(w, "%-11s failed ops: a %d of %d, b %d of %d\n", def.name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
			regressed = regressed || wb.Failed > wa.Failed
		}
	}
	return regressed, nil
}
