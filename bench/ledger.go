package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// ledger is what the every-workload mode writes: every number with the
// machine, toolchain and commit it was measured on. -compare reads two.
type ledger struct {
	Schema      string                     `json:"schema"`
	Environment environment                `json:"environment"`
	Seed        int64                      `json:"seed"`
	Runs        int                        `json:"runs"`
	RunSeconds  float64                    `json:"run_seconds"`
	Workloads   map[string]*workloadLedger `json:"workloads"`
	// Claim is what the numbers are offered as evidence of. The
	// benchmark itself never claims a gain.
	Claim *string `json:"claim"`
}

type workloadLedger struct {
	Why       string                   `json:"why"`
	Noisy     bool                     `json:"noisy"`
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	EndToEnd  map[string]*metricLedger `json:"end_to_end"`
	PerLayer  map[string]layerValue    `json:"per_layer"`
	// SelfS is the traced run's self time per op by span name, s.
	SelfS map[string]float64 `json:"self_s_per_op"`
	// OpS is the cycle-mean sample of the last untraced run: quartiles
	// (op_s is q1), extremes, MAD and count behind one op_s value.
	OpS    summary  `json:"op_s_samples"`
	Faults []string `json:"faults,omitempty"`
}

// metricLedger is one end-to-end metric over the runs of a workload: one
// value per run, their median and quartiles, and the spread (quartile
// distance over median) that decides whether a comparison can resolve
// the metric's bound.
type metricLedger struct {
	Meaning string    `json:"meaning"`
	Unit    string    `json:"unit"`
	Better  string    `json:"better"`
	Bound   float64   `json:"bound"`
	Values  []float64 `json:"values"`
	summary
	Spread float64 `json:"spread"`
}

// layerValue is one per-layer metric of the traced run, with the
// end-to-end metric and workload it is expected to move.
type layerValue struct {
	metricValue
	Moves string `json:"should_move"`
}

const ledgerSchema = "parbem-bench-ledger/1"

// runAll runs every workload (or only the named one), each run in a
// child process of its own (clean heap, its own peak RSS), one after the
// other: `runs` untraced runs on consecutive seeds, then the traced run.
func runAll(only string, seed int64, seconds float64, runs int, out string) error {
	if only != "" && findWorkload(only) == nil {
		return fmt.Errorf("unknown workload %q", only)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	led := &ledger{
		Schema: ledgerSchema, Environment: currentEnvironment(gitCommit()),
		Seed: seed, Runs: runs, RunSeconds: seconds, Workloads: map[string]*workloadLedger{},
	}
	child := func(name string, s int64, trace int) (*runResult, error) {
		rec := filepath.Join(out, fmt.Sprintf("run-%s.json", name))
		defer os.Remove(rec)
		cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(s), "-seconds", fmt.Sprint(seconds),
			"-trace", fmt.Sprint(trace), "-out", out, "-record", rec)
		cmd.Stderr = os.Stderr
		t0 := time.Now()
		runErr := cmd.Run()
		fmt.Fprintf(os.Stderr, "bench: %s seed %d trace %d took %.1fs\n", name, s, trace, time.Since(t0).Seconds())
		data, err := os.ReadFile(rec)
		if err != nil {
			return nil, fmt.Errorf("%s: run left no record: %v", name, runErr)
		}
		var res runResult
		if err := json.Unmarshal(data, &res); err != nil {
			return nil, err
		}
		return &res, nil
	}
	ok := true
	for _, def := range workloadDefs {
		if only != "" && only != def.name {
			continue
		}
		wl := &workloadLedger{Why: def.why, Correct: true, EndToEnd: map[string]*metricLedger{}, PerLayer: map[string]layerValue{}}
		led.Workloads[def.name] = wl
		note := func(res *runResult) {
			wl.Noisy = wl.Noisy || res.Noisy
			wl.Correct = wl.Correct && res.Correct
			wl.Attempted += res.Attempted
			wl.Failed += res.Failed
			wl.Faults = append(wl.Faults, res.Faults...)
		}
		for r := 0; r < runs; r++ {
			res, err := child(def.name, seed+int64(r), 0)
			if err != nil {
				return err
			}
			note(res)
			wl.OpS = res.OpS
			for _, m := range endToEnd {
				ml := wl.EndToEnd[m.Name]
				if ml == nil {
					ml = &metricLedger{Meaning: m.Meaning, Unit: m.Unit, Better: m.Better, Bound: m.Bound}
					wl.EndToEnd[m.Name] = ml
				}
				ml.Values = append(ml.Values, res.Metrics[m.Name])
			}
		}
		for _, ml := range wl.EndToEnd {
			ml.summary, ml.Spread = summarize(ml.Values), iqrShare(ml.Values)
		}
		res, err := child(def.name, seed, 1)
		if err != nil {
			return err
		}
		note(res)
		for _, m := range perLayer {
			wl.PerLayer[m.Name] = layerValue{metricValue{res.Metrics[m.Name], m.Unit}, m.Moves}
		}
		wl.SelfS = res.SelfS
		ok = ok && wl.Correct
	}
	data, err := json.MarshalIndent(led, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(out, "ledger.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	printLedger(os.Stdout, led)
	fmt.Printf("\nwrote %s\n", path)
	if !ok {
		return fmt.Errorf("some ops failed: see the FAULT lines")
	}
	return nil
}

// gitCommit is the checked-out commit, or "unknown" outside a git
// checkout (the driver's copy is not one).
func gitCommit() string {
	outb, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(outb))
}

func printLedger(w io.Writer, led *ledger) {
	e := led.Environment
	fmt.Fprintf(w, "parbem bench: %d CPUs, p = %d (scaling probes %d), %s, commit %s, load %.2f, seed %d, %d run(s) of %gs\n",
		e.NumCPU, e.Workers, e.ScaleWidth, e.GoVersion, e.Commit, e.LoadAvg1, led.Seed, led.Runs, led.RunSeconds)
	for _, def := range workloadDefs {
		wl := led.Workloads[def.name]
		if wl == nil {
			continue
		}
		tag := ""
		if wl.Noisy {
			tag = "  noisy: true"
		}
		fmt.Fprintf(w, "\n%s  (%d ops, %d failed)%s\n", def.name, wl.Attempted, wl.Failed, tag)
		for _, m := range endToEnd {
			ml := wl.EndToEnd[m.Name]
			bound := "not gated"
			if m.Bound > 0 {
				bound = fmt.Sprintf("bound %2.0f%%", 100*m.Bound)
			}
			fmt.Fprintf(w, "  %-28s %12.6g %-5s  q1 %-10.4g q3 %-10.4g spread %5.1f%%  %s\n",
				m.Name, ml.Median, m.Unit, ml.Q1, ml.Q3, 100*ml.Spread, bound)
		}
		s := wl.OpS
		fmt.Fprintf(w, "  cycle means of the last run (op_s is their q1): n %d  min %.4g  q1 %.4g  median %.4g  q3 %.4g  max %.4g  mad %.4g\n",
			s.N, s.Min, s.Q1, s.Median, s.Q3, s.Max, s.MAD)
		for _, m := range perLayer {
			if v := wl.PerLayer[m.Name]; v.Value != 0 {
				fmt.Fprintf(w, "    %-28s %12.6g %s\n", m.Name, v.Value, v.Unit)
			}
		}
		for _, f := range wl.Faults {
			fmt.Fprintf(w, "  FAULT: %s\n", f)
		}
	}
}

// runSmoke runs every workload untraced and traced in this process on
// the smoke geometry, and checks that every metric came out: each
// end-to-end one finite and above 0, each per-layer one present.
func runSmoke(w io.Writer, seed int64, out string) error {
	for _, def := range workloadDefs {
		refs, err := def.liveRefs()
		if err != nil {
			return err
		}
		for _, trace := range []bool{false, true} {
			t0 := time.Now()
			res, err := runOne(config{workload: def.name, seed: seed, trace: trace, smoke: true, p: workers(), out: out, refs: refs})
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s: smoke ops failed: %v", def.name, res.Faults)
			}
			want := len(endToEnd)
			if trace {
				want = len(perLayer)
			}
			if len(res.Metrics) != want {
				return fmt.Errorf("%s: %d metrics, want %d", def.name, len(res.Metrics), want)
			}
			for name, v := range res.Metrics {
				if math.IsNaN(v) || math.IsInf(v, 0) || (!trace && isGated(name) && v <= 0) {
					return fmt.Errorf("%s: metric %s = %v", def.name, name, v)
				}
				if unitOf(name) == "" {
					return fmt.Errorf("%s: metric %s is in neither table", def.name, name)
				}
			}
			fmt.Fprintf(w, "smoke %-11s trace=%-5v %d ops ok, %d metrics, %.1fs\n", def.name, trace, res.Attempted, len(res.Metrics), time.Since(t0).Seconds())
		}
	}
	return nil
}
