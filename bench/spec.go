package main

// endToEndMetric is something a user of the system waits for or pays.
// Bound is the share of the parent's median by which it may worsen before
// a change counts as a regression; 0 marks a metric that is measured,
// printed and kept in the ledger but not gated, because on a shared host
// it does not repeat within any bound the contract allows (README,
// "Noise"). BENCHMARK.json repeats the gated rows;
// TestManifestMatchesTables keeps the two in step.
type endToEndMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	// Meaning is for the printed report and the README.
	Meaning string `json:"-"`
}

var endToEnd = []endToEndMetric{
	{"setup_s", "s", "lower", 0.25, "process start to first timed op: geometry, pool or server start, warm-up ops, plan_sweep's cold first point (median of 3 set-ups, each less the share the hypervisor took)"},
	{"op_s", "s", "lower", 0.25, "wall time of one op on CPUs of its own: the lower quartile, over the run's cycles of identical work, of the mean op time in a cycle less the share of the cycle the hypervisor took"},
	{"alloc_mb_per_op", "MB", "lower", 0.10, "heap bytes allocated over the timed window per op"},
	{"peak_rss_mb", "MB", "lower", 0.25, "high-water resident set of the workload's process"},

	{"op_median_s", "s", "lower", 0, "median wall time of one timed op"},
	{"op_p95_s", "s", "lower", 0, "95th percentile of op wall time; with under 200 samples the highest percentile that has 10 samples beyond it, else the median"},
	{"ops_per_s", "1/s", "higher", 0, "timed ops over the timed window: the sustained closed-loop rate at p clients"},
	{"cpu_s_per_op", "s", "lower", 0, "process user+sys CPU over the timed window per op"},
	{"host_stolen_share", "ratio", "lower", 0, "share of the CPU time the machine asked for over the timed window that the hypervisor gave to other guests (/proc/stat steal); what op_s and setup_s have had taken off"},
}

// gated are the end-to-end metrics with a bound: the ones BENCHMARK.json
// lists and the result line of an untraced run carries.
func gated() []endToEndMetric {
	var g []endToEndMetric
	for _, m := range endToEnd {
		if m.Bound > 0 {
			g = append(g, m)
		}
	}
	return g
}

// isGated reports whether name is an end-to-end metric with a bound.
func isGated(name string) bool {
	for _, m := range gated() {
		if m.Name == name {
			return true
		}
	}
	return false
}

// layerMetric is a measurement of one layer (one package of this repo),
// taken from outside in the traced run. Moves names the end-to-end
// metric and workload it is expected to move; it has no bound.
type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	Moves  string `json:"-"`
}

var perLayer = []layerMetric{
	// Whole-op correctness, reported here because an end-to-end metric of
	// the contract may never be 0 and both of these normally are.
	{"failed_share", "ratio", "lower", "every workload: (errors + deadline hits + refusals + results over the accuracy limit) / ops attempted; any value above 0 fails the run"},
	{"max_rel_err", "ratio", "lower", "every workload: worst CapError(result, reference) over the checked ops"},

	{"geom.panelize_ms", "ms", "lower", "guard, < 1% of any op_s"},
	{"geom.panels", "count", "lower", "guard: problem size of the panel workloads"},
	{"geomio.read_us", "us", "lower", "serve.hit_ms only"},
	{"basis.build_ms", "ms", "lower", "guard, < 1% of op_s on tmpl_bus16"},
	{"basis.functions", "count", "lower", "guard: N of tmpl_bus16"},
	{"basis.templates", "count", "lower", "guard: M of tmpl_bus16"},

	{"kernel.pair_ns", "ns", "lower", "op_s on panel_fmm (near-fill share) and serve_mix (variant/cold); setup_s on plan_sweep"},

	{"assembly.pairs", "count", "lower", "exact work count K = M(M+1)/2 of tmpl_bus16"},
	{"assembly.serial_fill_s", "s", "lower", "single-threaded baseline of the template fill"},
	{"par.fill_1w_s", "s", "lower", "op_s and cpu_s_per_op on tmpl_bus16"},
	{"par.fill_pw_s", "s", "lower", "op_s on tmpl_bus16 (about 88% of it)"},
	{"par.fill_efficiency", "ratio", "higher", "op_s on tmpl_bus16: fill_1w / (p * fill_pw), the paper's Fig. 8"},
	{"assembly.template_pair_ns", "ns", "lower", "op_s and cpu_s_per_op on tmpl_bus16, nothing else"},
	{"mpi.fill_pw_s", "s", "lower", "the Distributed backend only; no timed workload"},
	{"mpi.fill_efficiency", "ratio", "higher", "the Distributed backend only; no timed workload"},
	{"sched.map_overhead_us", "us", "lower", "every parallel workload, slightly"},

	{"op.solve_spd_s", "s", "lower", "op_s on tmpl_bus16: the serial remainder that caps any fill speed-up"},

	{"fmm.topology_ms", "ms", "lower", "op_s on panel_fmm and plan_sweep"},
	{"fmm.near_fill_s", "s", "lower", "op_s on panel_fmm; setup_s on plan_sweep"},
	{"fmm.near_entries", "count", "lower", "work count behind fmm.near_fill_s"},
	{"fmm.leaves", "count", "lower", "tree size behind fmm.apply_ms"},
	{"fmm.near_fill_ns_per_entry", "ns", "lower", "op_s on panel_fmm"},
	{"fmm.apply_ms", "ms", "lower", "op_s on panel_fmm and plan_sweep; not panel_pfft, not serve_mix"},
	{"fmm.apply_1w_ms", "ms", "lower", "cpu_s_per_op on panel_fmm"},
	{"fmm.apply_efficiency", "ratio", "higher", "op_s on panel_fmm"},
	{"fmm.apply_mixed_ms", "ms", "lower", "no timed workload (they pin fp64); op.solve_mixed_s"},
	{"fmm.apply_allocs", "count", "lower", "must be 0: alloc_mb_per_op on panel_fmm"},

	{"pfft.topology_ms", "ms", "lower", "op_s on panel_pfft only"},
	{"pfft.near_fill_s", "s", "lower", "op_s on panel_pfft only"},
	{"pfft.near_entries", "count", "lower", "work count behind pfft.near_fill_s"},
	{"pfft.grid_nodes", "count", "lower", "padded FFT grid size behind fft.convolve_ms"},
	{"pfft.apply_ms", "ms", "lower", "op_s on panel_pfft only (about 73% of it, times iterations)"},
	{"pfft.apply_1w_ms", "ms", "lower", "cpu_s_per_op on panel_pfft"},
	{"pfft.apply_efficiency", "ratio", "higher", "op_s on panel_pfft"},
	{"pfft.apply_mixed_ms", "ms", "lower", "no timed workload; op.solve_mixed_s"},
	{"pfft.apply_allocs", "count", "lower", "must be 0: alloc_mb_per_op on panel_pfft"},
	{"fft.convolve_ms", "ms", "lower", "pfft.apply_ms, so op_s on panel_pfft only"},
	{"fft.convolve_1w_ms", "ms", "lower", "cpu_s_per_op on panel_pfft"},
	{"fft.convolve32_ms", "ms", "lower", "pfft.apply_mixed_ms"},
	{"pfft.convolve_share", "ratio", "lower", "how much of pfft.apply_ms an fft change can reach"},

	{"op.precond_build_ms", "ms", "lower", "op_s on panel_fmm and panel_pfft"},
	{"op.solve_s", "s", "lower", "op_s on panel_fmm (55-60%) and panel_pfft (about 73%)"},
	{"op.gmres_iters", "count", "lower", "op_s on the panel workloads; repeats exactly at fp64"},
	{"op.ms_per_iter", "ms", "lower", "gap to *.apply_ms is orthogonalisation + preconditioner + RHS scheduling"},
	{"op.solve_mixed_s", "s", "lower", "decides ROADMAP item 2: mixed must beat op.solve_s by 1.2x"},
	{"op.mixed_iters", "count", "lower", "iterations of the forced-mixed solves"},
	{"op.mixed_blowups", "count", "lower", "forced-mixed solves that hit the deadline or took > 4x the fp64 iterations"},

	{"plan.discretize_ms", "ms", "lower", "op_s on the panel workloads and plan_sweep (small)"},
	{"plan.topology_ms", "ms", "lower", "op_s on the panel workloads and plan_sweep"},
	{"plan.nearfield_ms", "ms", "lower", "op_s on panel_fmm, plan_sweep, serve_mix"},
	{"plan.factorize_ms", "ms", "lower", "op_s on the panel workloads and plan_sweep"},
	{"plan.solve_ms", "ms", "lower", "op_s on the panel workloads and plan_sweep"},
	{"plan.stage_gap_share", "ratio", "lower", "time hiding between plan stages: 1 - sum(stages)/total"},
	{"plan.hit_us", "us", "lower", "serve.hit_ms"},
	{"plan.near_reuse_ratio", "ratio", "higher", "op_s on plan_sweep, nothing on panel_fmm"},
	{"plan.fact_reused", "count", "higher", "op_s on plan_sweep"},
	{"plan.warm_iters_ratio", "ratio", "lower", "op_s on plan_sweep: warm-point iterations / cold-point iterations"},
	{"artifact.put_ms", "ms", "lower", "plan.artifact_warm_s; no timed workload"},
	{"artifact.get_ms", "ms", "lower", "plan.artifact_warm_s; no timed workload"},
	{"artifact.bytes", "bytes", "lower", "disk footprint of one family's stage artifacts"},
	{"plan.artifact_warm_s", "s", "lower", "the restart case: a fresh plan over a populated store; no timed workload"},

	{"batch.engine_cold_s", "s", "lower", "no timed workload: Engine.Extract, first sight of a structure"},
	{"batch.engine_warm_s", "s", "lower", "no timed workload: the fill served from the pair cache"},
	{"batch.pair_hit_ratio", "ratio", "higher", "batch.engine_warm_s"},

	{"serve.hit_ms", "ms", "lower", "op_s on serve_mix only if the median sits in the hit class (it does not)"},
	{"serve.variant_ms", "ms", "lower", "op_s, ops_per_s and op_p95_s on serve_mix"},
	{"serve.cold_ms", "ms", "lower", "ops_per_s and op_p95_s on serve_mix"},
	{"serve.overhead_ms", "ms", "lower", "client latency minus the response's total_ms: HTTP + JSON + queue"},
	{"serve.queue_wait_ms", "ms", "lower", "about 0 with p clients on p runners; a rise means runners are the bottleneck"},
	{"serve.state_hit_ratio", "ratio", "higher", "ops_per_s on serve_mix: the engine's state LRU"},
	{"serve.decode_us", "us", "lower", "serve.hit_ms and serve.overhead_ms"},
	{"serve.resp_kb", "KB", "lower", "serve.overhead_ms"},
	{"serve.rejected", "count", "lower", "must be 0 in a closed loop within the queue depth"},

	{"trace.coverage", "ratio", "higher", "sum of the recomposed layer spans / untraced op_s; 0.9-1.1 means the layers sum"},
	{"trace.overhead_share", "ratio", "lower", "traced op_s / untraced op_s - 1"},
}
