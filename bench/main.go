// Bench is this repository's benchmark: five named workloads, the
// end-to-end metrics a user of the system waits for or pays, and a
// per-layer ledger measured from outside the program under test. See
// README.md in this directory.
//
//	bash bench/run.sh --workload panel_fmm --seed 1 --seconds 40 --trace 0   one run, result line last
//	bash bench/run.sh -runs 10 -out bench/out/a                              every workload, ledger.json
//	bash bench/run.sh -compare bench/out/a/ledger.json bench/out/b/ledger.json
//	bash bench/run.sh -write-ref bench/ref                                   re-pin the references
//	bash bench/run.sh -smoke                                                 every workload and probe on a 2x2 bus
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// runSeconds is the timed window of one run, the run_seconds of
// BENCHMARK.json.
const runSeconds = 40

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload and print the result line (default: ledger mode over every workload, -runs 1)")
		seed     = flag.Int64("seed", 1, "workload seed: the H order of plan_sweep, the request stream of serve_mix")
		seconds  = flag.Float64("seconds", runSeconds, "timed window of one run, s")
		trace    = flag.Int("trace", 0, "1 = the traced run: ops recomposed from the layers with spans, plus the layer probes")
		out      = flag.String("out", "", "directory for ledger.json and trace files (default bench/out, or out inside bench/)")
		runs     = flag.Int("runs", 0, "ledger mode: this many untraced runs per workload (seeds seed, seed+1, ...) and a traced one, each a child process; with -workload, that workload only")
		record   = flag.String("record", "", "also write this run's full record to the file (used by the every-workload mode)")
		compare  = flag.Bool("compare", false, "compare two ledgers: -compare a.json b.json")
		writeRef = flag.String("write-ref", "", "pin every workload's reference set into this directory (bench/ref) and exit")
		smoke    = flag.Bool("smoke", false, "2x2 bus, two ops per workload, every workload and probe, in seconds")
	)
	flag.Parse()
	if *out == "" {
		*out = "out"
		if st, err := os.Stat("bench"); err == nil && st.IsDir() {
			*out = "bench/out"
		}
	}

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two ledger files"))
		}
		var regressed bool
		if regressed, err = compareLedgers(os.Stdout, flag.Arg(0), flag.Arg(1)); err == nil && regressed {
			os.Exit(1)
		}
	case *writeRef != "":
		for _, w := range workloadDefs {
			if *workload != "" && *workload != w.name {
				continue
			}
			if err = w.writeRef(*writeRef); err != nil {
				break
			}
		}
	case *smoke:
		err = runSmoke(os.Stdout, *seed, *out)
	case *workload != "" && *runs == 0:
		err = runWorkload(config{
			workload: *workload, seed: *seed, seconds: *seconds,
			trace: *trace != 0, p: workers(), out: *out,
		}, *record)
	default:
		err = runAll(*workload, *seed, *seconds, max(*runs, 1), *out)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// runWorkload is one run of one workload: every metric by name with its
// unit, then the result line the driver reads. A run with a failed op
// still prints its line, and exits non-zero.
func runWorkload(cfg config, record string) error {
	res, err := runOne(cfg)
	if err != nil {
		return err
	}
	printRun(os.Stdout, res)
	if record != "" {
		data, err := json.Marshal(res)
		if err != nil {
			return err
		}
		if err := os.WriteFile(record, data, 0o644); err != nil {
			return err
		}
	}
	line, err := json.Marshal(resultLine(res))
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d ops failed: %v", res.Workload, res.Failed, res.Attempted, res.Faults)
	}
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the contract's result object: every per-layer metric of
// a traced run, every gated end-to-end metric of an untraced one.
func resultLine(res *runResult) map[string]any {
	metrics := map[string]metricValue{}
	for name, v := range res.Metrics {
		metrics[name] = metricValue{v, unitOf(name)}
	}
	for name := range metrics {
		if !res.Trace && !isGated(name) {
			delete(metrics, name)
		}
	}
	return map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	}
}

func unitOf(name string) string {
	for _, m := range endToEnd {
		if m.Name == name {
			return m.Unit
		}
	}
	for _, m := range perLayer {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}

func printRun(w *os.File, res *runResult) {
	kind := "untraced"
	if res.Trace {
		kind = "traced"
	}
	fmt.Fprintf(w, "%s  seed %d  %s  %d ops, %d failed", res.Workload, res.Seed, kind, res.Attempted, res.Failed)
	if res.Noisy {
		fmt.Fprintf(w, "  NOISY (%.1f CPUs busy before)", res.BusyCores)
	}
	fmt.Fprintln(w)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if v := res.Metrics[name]; v != 0 || !res.Trace {
			note := ""
			if !res.Trace && !isGated(name) {
				note = "  (not gated)"
			}
			fmt.Fprintf(w, "  %-28s %14.6g %s%s\n", name, v, unitOf(name), note)
		}
	}
	if !res.Trace {
		s := res.OpS
		fmt.Fprintf(w, "  op_s is q1 of the cycle means: n %d  q1 %.4g  median %.4g  q3 %.4g  min %.4g  max %.4g  mad %.4g; op_p95_s is p%g\n",
			s.N, s.Q1, s.Median, s.Q3, s.Min, s.Max, s.MAD, res.TailP)
	}
	if len(res.SelfS) > 0 {
		fmt.Fprintln(w, "  self time per op by span (a span minus its children):")
		names = names[:0]
		for name := range res.SelfS {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "    %-26s %12.6g s\n", name, res.SelfS[name])
		}
	}
	for _, f := range res.Faults {
		fmt.Fprintf(w, "  FAULT: %s\n", f)
	}
}
