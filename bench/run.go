package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// config is one run of one workload.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// smoke swaps every geometry for a 2x2 bus and runs two ops, so tests
	// exercise every workload and probe in seconds.
	smoke bool
	p     int    // workers and clients of every op (GOMAXPROCS of the run)
	out   string // directory for trace files
	// refs overrides the pinned reference set (smoke: solved on the spot).
	refs *references
}

// outcome is what one op reports back to the run.
type outcome struct {
	dur    float64 // wall seconds
	class  string  // serve_mix request class
	relErr float64 // parbem.CapError against the reference
	fault  error   // error, deadline hit, refusal or result over its limit
	facts  opFacts
}

// opFacts are the fields the public results carry that the ledger reads.
type opFacts struct {
	iters     int
	stages    [5]float64 // discretize, topology, near-field, factorize, solve (s)
	total     float64    // the result's own total (s)
	serverMs  float64    // serve_mix: the response's total_ms
	respBytes int
	spanned   float64 // traced op: sum of the recomposed layer spans (s)
}

// instance is a workload that has been set up: the state its timed ops
// run against.
type instance interface {
	// clients is how many ops run concurrently (closed loop: each client
	// starts its next op when the previous one returned).
	clients() int
	// op runs the i-th op of the seeded stream. With a recorder it runs
	// the op recomposed from the layers' public functions, one span per
	// call; without, the op exactly as a user issues it.
	op(ctx context.Context, i int, rec *recorder) outcome
	// cycle is the period of the seeded stream, in ops, when op cost
	// depends on the position in it: a timed loop stops on a whole number
	// of cycles, so that every run times the same mix. 1 = any count.
	cycle() int
	// traceShape is how the traced run alternates traced and untraced
	// ops: blocks of block ops, blocks times each. block 0 means half a
	// --seconds window per block, for ops too small to count.
	traceShape() (block, blocks int)
	// probes measures the workload's layers from outside, by name into
	// the ledger. It runs in traced runs only.
	probes(cfg config, rec *recorder, untraced, traced []outcome, led map[string]float64) error
	close()
}

// workloadDef is a named workload: why it exists, how to set it up and
// how to pin its references.
type workloadDef struct {
	name string
	why  string
	// expect is a typical op time; every op runs under a deadline of ten
	// times it, and a deadline hit is a failed op.
	expect   time.Duration
	setup    func(cfg config, refs *references) (instance, error)
	writeRef func(dir string) error
	// liveRefs computes the smoke geometry's references on the spot.
	liveRefs func() (*references, error)
}

var workloadDefs = []*workloadDef{tmplBus16, panelFMM, panelPFFT, planSweep, serveMix}

// gatedWorkloads are the workloads BENCHMARK.json lists, the ones the
// driver runs and holds later changes to: the two whose op_s repeats
// within a bound on a shared host (README, "What the driver gates"). The
// other three run in every other mode of this program.
var gatedWorkloads = []*workloadDef{tmplBus16, serveMix}

func findWorkload(name string) *workloadDef {
	for _, w := range workloadDefs {
		if w.name == name {
			return w
		}
	}
	return nil
}

// runResult is one run's record: the contract's result line plus what
// the ledger keeps.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	OpS       summary            `json:"op_s_summary"`
	// SelfS is, for a traced run, the self time per op of every span
	// name: a span's duration minus what its children cover, in seconds.
	SelfS     map[string]float64 `json:"self_s_per_op,omitempty"`
	TailP     float64            `json:"op_tail_percentile"`
	LoadAvg1  float64            `json:"load_avg_1m"`
	BusyCores float64            `json:"busy_cores_before"`
	Noisy     bool               `json:"noisy"`
	Faults    []string           `json:"faults,omitempty"`
}

// setupRepeats is how many times an untraced run sets its workload up;
// setup_s is the median.
const setupRepeats = 3

// minOps is the fewest timed ops a run accepts, whatever --seconds says.
const minOps = 3

func runOne(cfg config) (*runResult, error) {
	def := findWorkload(cfg.workload)
	if def == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	// Everything the program under test does stays on p cores.
	runtime.GOMAXPROCS(cfg.p)

	res := &runResult{Workload: def.name, Seed: cfg.seed, Trace: cfg.trace, Metrics: map[string]float64{}}
	res.LoadAvg1, res.BusyCores = loadAvg1(), busyCores()
	if res.Noisy = noisy(res.BusyCores); res.Noisy {
		fmt.Fprintf(os.Stderr, "bench: warning: other processes keep %.1f of %d CPUs busy before %s (1-minute load average %.2f): numbers tagged noisy\n",
			res.BusyCores, runtime.NumCPU(), def.name, res.LoadAvg1)
	}

	refs := cfg.refs
	if refs == nil {
		var err error
		if refs, err = loadReferences(def.name); err != nil {
			return nil, err
		}
	}

	repeats := setupRepeats
	if cfg.trace || cfg.smoke {
		repeats = 1
	}
	var inst instance
	var setups []float64
	for k := 0; k < repeats; k++ {
		if inst != nil {
			inst.close()
			runtime.GC()
		}
		var err error
		took := unstolen(func() { inst, err = def.setup(cfg, refs) })
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		setups = append(setups, took)
	}
	defer inst.close()

	var all []outcome
	var err error
	if cfg.trace {
		all, err = tracedRun(cfg, inst, 10*def.expect, res)
	} else {
		all = untracedRun(cfg, inst, 10*def.expect, res)
		res.Metrics["setup_s"] = median(setups)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}

	res.Attempted = len(all)
	var worst float64
	for _, o := range all {
		if o.fault != nil {
			res.Failed++
			if len(res.Faults) < 8 {
				res.Faults = append(res.Faults, o.fault.Error())
			}
		}
		worst = max(worst, o.relErr)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if cfg.trace {
		res.Metrics["failed_share"] = float64(res.Failed) / float64(max(res.Attempted, 1))
		res.Metrics["max_rel_err"] = worst
	}
	return res, nil
}

// untracedRun is the timed loop of a --trace 0 run and the end-to-end
// metrics it yields.
func untracedRun(cfg config, inst instance, deadline time.Duration, res *runResult) []outcome {
	window := time.Duration(cfg.seconds * float64(time.Second))
	want := minOps
	if cfg.smoke {
		window, want = 0, 2
	}
	cpu0, alloc0 := cpuSeconds(), totalAllocMB()
	ops, marks, elapsed := timedLoop(inst, nil, 0, window, want, deadline)
	cpu1, alloc1 := cpuSeconds(), totalAllocMB()
	n := float64(len(ops))
	durs := durations(ops)
	// op_s: a cycle is the stretch of the stream that repeats the same
	// work (one op; one H permutation; one block of the request mix), so
	// cycle means are samples of one quantity. The host slows the process
	// down in bursts of a few seconds and never speeds it up, so the lower
	// quartile of those samples repeats from run to run where their median
	// does not. What the hypervisor took outright is in /proc/stat, cycle
	// by cycle, and comes off first.
	cycles := cycleMeans(durs, inst.cycle())
	for k := range cycles {
		if k+1 < len(marks) {
			cycles[k] *= 1 - stolenShare(marks[k], marks[k+1])
		}
	}
	res.OpS = summarize(cycles)
	res.Metrics["op_s"] = res.OpS.Q1
	res.Metrics["alloc_mb_per_op"] = (alloc1 - alloc0) / n
	res.Metrics["peak_rss_mb"] = peakRSSMB()
	// Measured, not gated.
	var tail float64
	res.TailP, tail = tailPercentile(durs)
	res.Metrics["op_median_s"] = median(durs)
	res.Metrics["op_p95_s"] = tail
	res.Metrics["ops_per_s"] = n / elapsed
	res.Metrics["cpu_s_per_op"] = (cpu1 - cpu0) / n
	res.Metrics["host_stolen_share"] = stolenShare(marks[0], marks[len(marks)-1])
	return ops
}

// cycleMeans is the mean op time of each whole cycle of a run's ops, in
// stream order. A run cut short of one whole cycle (a faulted one) yields
// the mean of what it has.
func cycleMeans(durs []float64, cycle int) []float64 {
	if len(durs) == 0 {
		return nil
	}
	mean := func(xs []float64) float64 {
		var sum float64
		for _, x := range xs {
			sum += x
		}
		return sum / float64(len(xs))
	}
	if len(durs) < cycle {
		return []float64{mean(durs)}
	}
	means := make([]float64, 0, len(durs)/cycle)
	for i := 0; i+cycle <= len(durs); i += cycle {
		means = append(means, mean(durs[i:i+cycle]))
	}
	return means
}

// tracedRun is a --trace 1 run: blocks of recomposed, span-recording ops
// alternating with blocks of untraced ones (so that a drift of the
// machine over the run lands on both alike), then the layer probes, the
// per-layer metrics and the trace file.
func tracedRun(cfg config, inst instance, deadline time.Duration, res *runResult) ([]outcome, error) {
	rec := newRecorder()
	block, blocks := inst.traceShape()
	window := time.Duration(0)
	if block == 0 {
		block, window = 1, time.Duration(cfg.seconds*float64(time.Second)/2)
	}
	if cfg.smoke {
		block, blocks, window = 1, 1, 0
	}
	var untraced, traced []outcome
	faulted := false
	for b := 0; b < blocks && !faulted; b++ {
		tr, _, _ := timedLoop(inst, rec, len(untraced)+len(traced), window, block, deadline)
		traced = append(traced, tr...)
		un, _, _ := timedLoop(inst, nil, len(untraced)+len(traced), window, block, deadline)
		untraced = append(untraced, un...)
		for _, o := range append(tr, un...) {
			faulted = faulted || o.fault != nil
		}
	}
	all := append(append([]outcome(nil), untraced...), traced...)
	for _, m := range perLayer {
		res.Metrics[m.Name] = 0 // a layer that does nothing here reports 0
	}
	if faulted {
		return all, nil // the run fails on its ops; the probes have nothing sound to read
	}
	if err := inst.probes(cfg, rec, untraced, traced, res.Metrics); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	res.SelfS = selfByName(rec.spans)
	for name := range res.SelfS {
		res.SelfS[name] /= float64(len(traced))
	}
	res.OpS = summarize(durations(untraced))
	un, tr := res.OpS.Median, median(durations(traced))
	var spanned []float64
	for _, o := range traced {
		spanned = append(spanned, o.facts.spanned)
	}
	res.Metrics["trace.overhead_share"] = tr/un - 1
	res.Metrics["trace.coverage"] = median(spanned) / un
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	return all, rec.write(filepath.Join(cfg.out, "trace-"+cfg.workload+".json"))
}

func durations(ops []outcome) []float64 {
	d := make([]float64, len(ops))
	for i, o := range ops {
		d[i] = o.dur
	}
	return d
}

// timedLoop runs ops first, first+1, ... of the instance's stream on its
// clients until the window has passed, at least want ops have run and
// the count is a whole number of the stream's cycles: the op that would
// start the next cycle is not handed out, nor any after it.
// Each op gets its own deadline; after a fault no further op starts, so
// a broken program cannot hold the benchmark. It returns the outcomes in
// stream order, a reading of the machine's CPU times at the start of
// every cycle and one at the end of the loop, and the wall time of the
// whole loop.
func timedLoop(inst instance, rec *recorder, first int, window time.Duration, want int, deadline time.Duration) ([]outcome, []cpuTimes, float64) {
	var mu sync.Mutex
	next, stopped := 0, false
	var got []outcome
	var marks []cpuTimes
	cycle := inst.cycle()
	start := time.Now()
	// take hands out the next op's index, or false once the loop is over.
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if stopped || (next >= want && next%cycle == 0 && time.Since(start) >= window) {
			stopped = true
			return 0, false
		}
		if next%cycle == 0 {
			marks = append(marks, readCPUTimes())
		}
		next++
		got = append(got, outcome{})
		return next - 1, true
	}
	var wg sync.WaitGroup
	for c := 0; c < inst.clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := take()
				if !ok {
					return
				}
				ctx, cancel := context.WithTimeout(context.Background(), deadline)
				t0 := time.Now()
				o := inst.op(ctx, first+i, rec)
				o.dur = time.Since(t0).Seconds()
				if o.fault == nil && ctx.Err() != nil {
					o.fault = fmt.Errorf("op %d ran past its %v deadline", first+i, deadline)
				}
				cancel()
				mu.Lock()
				got[i] = o
				stopped = stopped || o.fault != nil
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return got, append(marks, readCPUTimes()), time.Since(start).Seconds()
}
