package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"parbem"
	"parbem/internal/artifact"
	"parbem/internal/fft"
	"parbem/internal/fmm"
	"parbem/internal/geom"
	"parbem/internal/kernel"
	"parbem/internal/op"
	"parbem/internal/pcbem"
	"parbem/internal/pfft"
	"parbem/internal/plan"
	"parbem/internal/sched"
)

// panelKind is one cold panel-pipeline workload: a fresh plan and one
// extraction per op, on a geometry sized so that the cost model itself
// would pick the backend the workload forces.
type panelKind struct {
	name    string
	backend op.Backend
	bus     int     // m = n wires per layer
	edge    float64 // panel edge, m
	limit   float64 // accuracy limit against dense direct
}

var (
	panelFMM = newPanelWorkload(
		&panelKind{name: "panel_fmm", backend: op.BackendFMM, bus: 8, edge: 0.5e-6, limit: panelLimit}, 2*time.Second,
		"cold plan.New + Extract of an 8x8 bus at 0.5 um (3712 panels, fmm, fp64): near-field fill plus GMRES x fmm.Apply; bypasses pfft, fft and the template fill")
	panelPFFT = newPanelWorkload(
		&panelKind{name: "panel_pfft", backend: op.BackendPFFT, bus: 7, edge: 0.4e-6, limit: pfftLimit}, 4*time.Second,
		"cold plan.New + Extract of a 7x7 bus at 0.4 um (6188 panels, pfft, fp64): GMRES x pfft.Apply, mostly grid convolution; bypasses fmm, so an fft change moves this and not panel_fmm")
)

func newPanelWorkload(k *panelKind, expect time.Duration, why string) *workloadDef {
	return &workloadDef{
		name: k.name, why: why, expect: expect,
		setup: func(cfg config, refs *references) (instance, error) { return setupPanel(k, cfg, refs) },
		writeRef: func(dir string) error {
			st, edge := k.geometry(false)
			res, err := parbem.ExtractReference(st, edge)
			if err != nil {
				return err
			}
			return writeReference(dir, k.name, fmt.Sprintf("parbem.ExtractReference (dense direct) at edge %g m", edge),
				k.limit, map[string]*parbem.Matrix{"bus": res.C})
		},
		liveRefs: func() (*references, error) {
			st, edge := k.geometry(true)
			return denseReferences(map[string]*parbem.Structure{"bus": st}, edge, smokeLimit)
		},
	}
}

// denseReferences solves each structure dense-direct on the spot (smoke
// geometries only: they are tiny).
func denseReferences(sts map[string]*parbem.Structure, edge, limit float64) (*references, error) {
	r := &references{limit: limit, cases: map[string]*parbem.Matrix{}}
	for key, st := range sts {
		res, err := parbem.ExtractReference(st, edge)
		if err != nil {
			return nil, err
		}
		r.cases[key] = res.C
	}
	return r, nil
}

func (k *panelKind) geometry(smoke bool) (*parbem.Structure, float64) {
	if smoke {
		return parbem.NewBus(2, 2).Build(), 0.75e-6
	}
	return parbem.NewBus(k.bus, k.bus).Build(), k.edge
}

// pipeline is the solve every timed panel op asks for: the forced
// backend at fp64. The timed workloads pin fp64 because a forced-mixed
// solve intermittently takes 80x as long (see the mixed probe).
func (k *panelKind) pipeline() op.Options {
	return op.Options{Backend: k.backend, Precision: op.PrecisionFP64, Tol: 1e-4}
}

type panelInst struct {
	kind *panelKind
	st   *parbem.Structure
	edge float64
	cfg  config
	refs *references
}

func setupPanel(k *panelKind, cfg config, refs *references) (instance, error) {
	in := &panelInst{kind: k, cfg: cfg, refs: refs}
	in.st, in.edge = k.geometry(cfg.smoke)
	if o := in.op(context.Background(), -1, nil); o.fault != nil { // warm-up
		return nil, o.fault
	}
	return in, nil
}

func (in *panelInst) traceShape() (int, int) { return 1, 3 }
func (in *panelInst) cycle() int             { return 1 }
func (in *panelInst) clients() int           { return 1 }
func (in *panelInst) close()                 {}

func (in *panelInst) op(ctx context.Context, i int, rec *recorder) (o outcome) {
	var c *parbem.Matrix
	if rec == nil {
		pl, err := plan.New(plan.Options{MaxEdge: in.edge, Pipeline: in.kind.pipeline()})
		if err != nil {
			o.fault = err
			return o
		}
		res, err := pl.ExtractCtx(ctx, in.st)
		if err != nil {
			o.fault = err
			return o
		}
		c = res.C
		o.facts = planFacts(res)
	} else {
		res, spanned, err := in.recomposed(ctx, i, rec)
		if err != nil {
			o.fault = err
			return o
		}
		c = res.C
		o.facts.iters, o.facts.spanned = res.Iterations, spanned
	}
	o.relErr, o.fault = in.refs.check("bus", c)
	return o
}

// planFacts copies what a plan result says about itself.
func planFacts(res *plan.Result) opFacts {
	s := res.Stages
	return opFacts{
		iters:  res.Iterations,
		stages: [5]float64{s.Discretize.Seconds(), s.Topology.Seconds(), s.NearField.Seconds(), s.Factorize.Seconds(), s.Solve.Seconds()},
		total:  res.Total.Seconds(),
	}
}

// recomposed is plan.New + Extract spelled out over the layers' public
// functions, one span per call.
func (in *panelInst) recomposed(ctx context.Context, i int, rec *recorder) (*op.Result, float64, error) {
	t := rec.traceOp(i)
	defer t.end()

	var spec op.Spec
	if err := t.step("pcbem.NewProblem", func() error {
		prob, err := pcbem.NewProblem(in.st, in.edge)
		if err == nil {
			spec = prob.Spec()
		}
		return err
	}); err != nil {
		return nil, 0, err
	}
	popt := in.kind.pipeline()
	var a op.Operator
	switch in.kind.backend {
	case op.BackendFMM:
		fo := op.FMMOptions(spec, popt)
		var topo *fmm.Topology
		t.step("fmm.NewTopology", func() error { topo = fmm.NewTopology(spec.Panels, fo); return nil })
		t.step("fmm.NewOperatorWith", func() error { a = fmm.NewOperatorWith(topo, spec.Panels, fo, nil); return nil })
	case op.BackendPFFT:
		po := op.PFFTOptions(spec, popt)
		var pf *pfft.Operator
		t0 := rec.now()
		t.step("pfft.NewOperator", func() error { pf = pfft.NewOperator(spec.Panels, po); return nil })
		// The operator times its own two phases; lay them out as children.
		topoD, nearD := pf.PhaseTimes()
		rec.add(i, t.last, "pfft.topology", t0, topoD.Nanoseconds())
		rec.add(i, t.last, "pfft.nearfield", t0+topoD.Nanoseconds(), nearD.Nanoseconds())
		a = pf
	}
	var pipe *op.Pipeline
	if err := t.step("op.NewWithOperator", func() (err error) {
		pipe, err = op.NewWithOperator(spec, a, popt)
		return err
	}); err != nil {
		return nil, 0, err
	}
	var res *op.Result
	err := t.step("op.Pipeline.Extract", func() (err error) {
		res, err = pipe.ExtractWarmCtx(ctx, nil)
		return err
	})
	return res, t.spanned.Seconds(), err
}

func (in *panelInst) probes(cfg config, rec *recorder, untraced, traced []outcome, led map[string]float64) error {
	p := in.cfg.p
	reps := 50
	if cfg.smoke {
		reps = 5
	}
	led["geom.panelize_ms"] = 1e3 * medianOf(5, func() { in.st.Panelize(in.edge) })
	prob, err := pcbem.NewProblem(in.st, in.edge)
	if err != nil {
		return err
	}
	spec := prob.Spec()
	n := len(spec.Panels)
	led["geom.panels"] = float64(n)
	planStageMedians(untraced, led)
	if err := probePlanHit(in.st, in.edge, in.kind.pipeline(), led); err != nil {
		return err
	}

	solveS := median(rec.durations("op.Pipeline.Extract"))
	iters := float64(traced[len(traced)-1].facts.iters)
	led["op.precond_build_ms"] = 1e3 * median(rec.durations("op.NewWithOperator"))
	led["op.solve_s"] = solveS
	led["op.gmres_iters"] = iters
	led["op.ms_per_iter"] = 1e3 * solveS / iters

	// The scaling probes: steady-state Apply on every core (w workers)
	// against one worker, on operators that share one near field. The
	// mixed probe then solves on the operator at the timed ops' own width,
	// so that it compares with op.solve_s.
	popt := in.kind.pipeline()
	w := scaleWorkers()
	x, y := make([]float64, n), make([]float64, n)
	for i := range x {
		x[i] = 1 + float64(i%7)/7
	}
	apply := func(f func(dst, x []float64)) float64 {
		f(y, x) // warm: scratch pools, the lazily built float32 mirror
		return 1e3 * medianOf(reps, func() { f(y, x) })
	}
	var a op.Operator
	var mixed func() // enables the float32 mirror on a
	switch in.kind.backend {
	case op.BackendFMM:
		probeKernelBlock(spec, led)
		fo := op.FMMOptions(spec, popt)
		led["fmm.topology_ms"] = 1e3 * median(rec.durations("fmm.NewTopology"))
		fill := median(rec.durations("fmm.NewOperatorWith"))
		var wide *fmm.Operator
		at := func(workers int) *fmm.Operator { // an operator of that width over wide's near field
			f := fo
			f.Workers, f.Exec, f.Pool = workers, nil, nil
			var reuse *fmm.Reuse
			if wide != nil {
				reuse = &fmm.Reuse{Vals: wide.NearVals()}
			}
			return fmm.NewOperatorWith(fmm.NewTopology(spec.Panels, f), spec.Panels, f, reuse)
		}
		atWidth(w, func() {
			wide = at(w)
			led["fmm.apply_ms"] = apply(wide.Apply)
			led["fmm.apply_allocs"] = allocsPer(reps, func() { wide.Apply(y, x) })
			led["fmm.apply_mixed_ms"] = apply(wide.ApplyMixed)
		})
		led["fmm.near_fill_s"] = fill
		led["fmm.near_entries"] = float64(wide.NearEntries())
		led["fmm.leaves"] = float64(fmm.NewTopology(spec.Panels, fo).Leaves())
		led["fmm.near_fill_ns_per_entry"] = 1e9 * fill / float64(wide.NearEntries())
		one := at(1)
		led["fmm.apply_1w_ms"] = apply(one.Apply)
		led["fmm.apply_efficiency"] = led["fmm.apply_1w_ms"] / (float64(w) * led["fmm.apply_ms"])
		timed := one
		if p != 1 {
			timed = at(p)
		}
		a, mixed = timed, timed.EnableMixed
		if err := probeArtifacts(in, led); err != nil {
			return err
		}
	case op.BackendPFFT:
		po := op.PFFTOptions(spec, popt)
		var wide *pfft.Operator
		at := func(workers int) *pfft.Operator {
			f := po
			f.Workers, f.Exec, f.Pool = workers, nil, nil
			if wide == nil {
				return pfft.NewOperator(spec.Panels, f)
			}
			return pfft.NewOperatorReuse(spec.Panels, f, &pfft.Reuse{Artifact: wide.NearArtifact()})
		}
		atWidth(w, func() {
			wide = at(w)
			led["pfft.apply_ms"] = apply(wide.Apply)
			led["pfft.apply_allocs"] = allocsPer(reps, func() { wide.Apply(y, x) })
			led["pfft.apply_mixed_ms"] = apply(wide.ApplyMixed)
		})
		led["pfft.topology_ms"] = 1e3 * median(rec.durations("pfft.topology"))
		led["pfft.near_fill_s"] = median(rec.durations("pfft.nearfield"))
		led["pfft.near_entries"] = float64(wide.NearEntries())
		nx, ny, nz := wide.GridNodes()
		px, py, pz := fft.NextPow2(2*nx), fft.NextPow2(2*ny), fft.NextPow2(2*nz)
		led["pfft.grid_nodes"] = float64(px * py * pz)
		one := at(1)
		led["pfft.apply_1w_ms"] = apply(one.Apply)
		led["pfft.apply_efficiency"] = led["pfft.apply_1w_ms"] / (float64(w) * led["pfft.apply_ms"])
		probeConvolve(px, py, pz, w, reps, led)
		led["pfft.convolve_share"] = led["fft.convolve_ms"] / led["pfft.apply_ms"]
		timed := one
		if p != 1 {
			timed = at(p)
		}
		a, mixed = timed, timed.EnableMixed
	}
	return probeMixed(spec, a, mixed, popt, solveS, int(iters), cfg.smoke, led)
}

// planStageMedians reads the stage timings every plan result carries.
func planStageMedians(ops []outcome, led map[string]float64) {
	var st [5][]float64
	var gap []float64
	for _, o := range ops {
		if o.facts.total == 0 { // not a plan result
			continue
		}
		var sum float64
		for k, v := range o.facts.stages {
			st[k] = append(st[k], v)
			sum += v
		}
		gap = append(gap, 1-sum/o.facts.total)
	}
	for k, name := range []string{"plan.discretize_ms", "plan.topology_ms", "plan.nearfield_ms", "plan.factorize_ms", "plan.solve_ms"} {
		led[name] = 1e3 * median(st[k])
	}
	led["plan.stage_gap_share"] = median(gap)
}

// probePlanHit times the identical-geometry Extract of a warm plan.
func probePlanHit(st *parbem.Structure, edge float64, popt op.Options, led map[string]float64) error {
	pl, err := plan.New(plan.Options{MaxEdge: edge, Pipeline: popt})
	if err != nil {
		return err
	}
	if _, err := pl.Extract(st); err != nil {
		return err
	}
	led["plan.hit_us"] = 1e6 * medianOf(200, func() { _, err = pl.Extract(st) })
	return err
}

// probeKernelBlock times kernel.RectGalerkinBatch over a fixed 64x64
// block of neighbouring panels (the first 64 against the next 64: one
// wire's faces), per pair.
func probeKernelBlock(spec op.Spec, led map[string]float64) {
	const b = 64
	if len(spec.Panels) < 2*b {
		return
	}
	src := make([]geom.Rect, b)
	for j := range src {
		src[j] = spec.Panels[b+j].Rect
	}
	dst := make([]float64, b)
	block := func() {
		for i := 0; i < b; i++ {
			kernel.RectGalerkinBatch(spec.Cfg, spec.Panels[i].Rect, src, dst)
		}
	}
	block()
	led["kernel.pair_ns"] = 1e9 * medianOf(30, block) / (b * b)
}

// probeConvolve times the fused r2c grid convolution on a grid of the
// operator's own padded dimensions: one worker, w workers, float32.
func probeConvolve(px, py, pz, w, reps int, led map[string]float64) {
	fill := func(set func(ix, iy, iz int, v float64)) {
		for ix := 0; ix < px; ix++ {
			for iy := 0; iy < py; iy++ {
				for iz := 0; iz < pz; iz++ {
					set(ix, iy, iz, float64((ix*31+iy*17+iz*7)%101)/101)
				}
			}
		}
	}
	g, kh := fft.NewRGrid3(px, py, pz), fft.NewRGrid3(px, py, pz)
	g32, kh32 := fft.NewRGrid3F32(px, py, pz), fft.NewRGrid3F32(px, py, pz)
	fill(func(ix, iy, iz int, v float64) {
		g.Data[g.RIdx(ix, iy, iz)], kh.Data[kh.RIdx(ix, iy, iz)] = v, 1-v
		g32.Data[g32.RIdx(ix, iy, iz)], kh32.Data[kh32.RIdx(ix, iy, iz)] = float32(v), float32(1-v)
	})
	kh.ForwardReal()
	kh32.ForwardReal()
	conv := func(f func()) float64 {
		f()
		return 1e3 * medianOf(reps, f)
	}
	led["fft.convolve_1w_ms"] = conv(func() { g.ConvolveInto(kh) })
	var ex sched.Executor
	if w > 1 {
		ex = sched.Local(w)
	}
	g.Exec, g32.Exec = ex, ex
	atWidth(w, func() {
		led["fft.convolve_ms"] = conv(func() { g.ConvolveInto(kh) })
		led["fft.convolve32_ms"] = conv(func() { g32.ConvolveInto(kh32) })
	})
}

// allocsPer is the mean number of heap objects one call allocates.
func allocsPer(n int, f func()) float64 {
	f()
	m0 := mallocs()
	for i := 0; i < n; i++ {
		f()
	}
	return float64(mallocs()-m0) / float64(n)
}

// probeMixed is the mixed-precision probe: forced-mixed solves on the
// prebuilt operator, each under a deadline, counted as a blow-up when it
// hits the deadline or takes more than 4x the fp64 iterations. The
// deadline is 5x the fp64 solve, which is past the 4x that already
// counts, so the probe always ends.
func probeMixed(spec op.Spec, a op.Operator, enable func(), popt op.Options, fp64S float64, fp64Iters int, smoke bool, led map[string]float64) error {
	solves := 4
	if smoke {
		solves = 2
	}
	enable()
	popt.Precision = op.PrecisionMixed
	pipe, err := op.NewWithOperator(spec, a, popt)
	if err != nil {
		return err
	}
	deadline := time.Duration(5 * fp64S * float64(time.Second))
	var times, its []float64
	blowups := 0
	for k := 0; k < solves; k++ {
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		t0 := time.Now()
		res, err := pipe.ExtractWarmCtx(ctx, nil)
		d := time.Since(t0).Seconds()
		cancel()
		var oi *op.Interrupted
		switch {
		case errors.As(err, &oi):
			blowups++
			times, its = append(times, d), append(its, float64(oi.Iterations))
		case err != nil:
			return fmt.Errorf("forced-mixed solve: %w", err)
		default:
			if res.Iterations > 4*fp64Iters {
				blowups++
			}
			times, its = append(times, d), append(its, float64(res.Iterations))
		}
	}
	led["op.solve_mixed_s"] = median(times)
	led["op.mixed_iters"] = median(its)
	led["op.mixed_blowups"] = float64(blowups)
	return nil
}

// timedStore is a disk artifact store as plans see it, timing its own
// traffic.
type timedStore struct {
	s          *artifact.Store
	puts, gets []float64
	err        error
}

func (t *timedStore) Get(key string) (data []byte, ok bool) {
	d := timeOf(func() { data, ok = t.s.Get(key) })
	if ok {
		t.gets = append(t.gets, d)
	}
	return data, ok
}

func (t *timedStore) Put(key string, data []byte) {
	t.puts = append(t.puts, timeOf(func() {
		if err := t.s.Put(key, data); err != nil {
			t.err = err
		}
	}))
}

// probeArtifacts measures the restart case on the workload's geometry: a
// plan that populates a disk store, then a fresh plan over that store.
func probeArtifacts(in *panelInst, led map[string]float64) error {
	if err := os.MkdirAll(in.cfg.out, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(in.cfg.out, "artifacts-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := artifact.Open(dir, artifact.Options{})
	if err != nil {
		return err
	}
	ts := &timedStore{s: store}
	fresh := func() (*plan.Plan, error) {
		return plan.New(plan.Options{MaxEdge: in.edge, Pipeline: in.kind.pipeline(), Artifacts: ts})
	}
	cold, err := fresh()
	if err != nil {
		return err
	}
	if _, err := cold.Extract(in.st); err != nil {
		return err
	}
	warm, err := fresh()
	if err != nil {
		return err
	}
	var res *plan.Result
	led["plan.artifact_warm_s"] = timeOf(func() { res, err = warm.Extract(in.st) })
	if err != nil {
		return err
	}
	if ts.err != nil {
		return fmt.Errorf("artifact store: %w", ts.err)
	}
	if _, err := in.refs.check("bus", res.C); err != nil {
		return fmt.Errorf("plan over a populated artifact store: %w", err)
	}
	led["artifact.put_ms"] = 1e3 * median(ts.puts)
	led["artifact.get_ms"] = 1e3 * median(ts.gets)
	led["artifact.bytes"] = float64(store.Bytes())
	return nil
}
