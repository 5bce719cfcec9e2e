package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"parbem"
	"parbem/internal/op"
	"parbem/internal/plan"
)

// planSweep is the design loop: one Plan re-extracting H variants of one
// bus, so near-field entries are copied, block factors adopted and GMRES
// warm-started.
var planSweep = &workloadDef{
	name:   "plan_sweep",
	why:    "one Plan (fmm, fp64) over H variants of a 6x6 bus (2208 panels): panel_fmm's layers used for reuse - near entries copied, factors adopted, GMRES warm-started; a fill gain that breaks reuse loses here",
	expect: 1500 * time.Millisecond,
	setup:  setupSweep,
	writeRef: func(dir string) error {
		cases := map[string]*parbem.Matrix{}
		for _, h := range append([]float64{sweepColdH}, sweepHs...) {
			res, err := parbem.ExtractReference(sweepStructure(false, h), sweepEdge)
			if err != nil {
				return err
			}
			cases[sweepKey(h)] = res.C
		}
		return writeReference(dir, "plan_sweep", fmt.Sprintf("parbem.ExtractReference (dense direct) at edge %g m, one case per H", sweepEdge),
			panelLimit, cases)
	},
	liveRefs: func() (*references, error) {
		sts := map[string]*parbem.Structure{}
		for _, h := range append([]float64{sweepColdH}, sweepHs...) {
			sts[sweepKey(h)] = sweepStructure(true, h)
		}
		return denseReferences(sts, sweepEdge, panelLimit)
	},
}

const (
	sweepEdge  = 0.5e-6
	sweepColdH = 1.0e-6 // the cold first point, part of set-up
)

// sweepHs are the layer separations the timed ops visit: every run sees
// the same values in a seeded order, so the median op time does not
// depend on which values a seed happened to draw, and every point has a
// pinned reference.
var sweepHs = []float64{0.6e-6, 0.7e-6, 0.8e-6, 0.9e-6, 1.1e-6, 1.2e-6, 1.3e-6, 1.4e-6}

func sweepKey(h float64) string { return fmt.Sprintf("h=%.2fum", h*1e6) }

func sweepStructure(smoke bool, h float64) *parbem.Structure {
	sp := parbem.NewBus(6, 6)
	if smoke {
		sp = parbem.NewBus(2, 2)
	}
	sp.H = h
	return sp.Build()
}

// sweepSequence is the H sequence of a seed: seeded permutations of
// sweepHs end to end, no value twice in a row.
func sweepSequence(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	seq := make([]float64, 0, n+len(sweepHs))
	for len(seq) < n {
		perm := rng.Perm(len(sweepHs))
		if len(seq) > 0 && sweepHs[perm[0]] == seq[len(seq)-1] {
			perm[0], perm[1] = perm[1], perm[0]
		}
		for _, k := range perm {
			seq = append(seq, sweepHs[k])
		}
	}
	return seq[:n]
}

func sweepPipeline() op.Options {
	return op.Options{Backend: op.BackendFMM, Precision: op.PrecisionFP64, Tol: 1e-4}
}

type sweepInst struct {
	cfg       config
	refs      *references
	pl        *plan.Plan
	seq       []float64
	coldIters int
	afterCold plan.Stats
}

func setupSweep(cfg config, refs *references) (instance, error) {
	pl, err := plan.New(plan.Options{MaxEdge: sweepEdge, Pipeline: sweepPipeline()})
	if err != nil {
		return nil, err
	}
	in := &sweepInst{cfg: cfg, refs: refs, pl: pl, seq: sweepSequence(cfg.seed, 1024)}
	res, err := pl.Extract(sweepStructure(cfg.smoke, sweepColdH))
	if err != nil {
		return nil, err
	}
	if _, err := refs.check(sweepKey(sweepColdH), res.C); err != nil {
		return nil, err
	}
	in.coldIters, in.afterCold = res.Iterations, pl.Stats()
	return in, nil
}

// traceShape: one whole permutation of the H values traced, the next
// untraced, so both medians are over the same geometries.
func (in *sweepInst) traceShape() (int, int) { return len(sweepHs), 1 }

// cycle: an op costs 0.5 s at H <= 0.8 um and over 1 s above (the fmm tree
// changes), so only whole permutations give comparable medians.
func (in *sweepInst) cycle() int   { return len(sweepHs) }
func (in *sweepInst) clients() int { return 1 }
func (in *sweepInst) close()       {}

func (in *sweepInst) op(ctx context.Context, i int, rec *recorder) (o outcome) {
	h := in.seq[i%len(in.seq)]
	st := sweepStructure(in.cfg.smoke, h)
	root, end := rec.begin(i, 0, "op")
	t0 := rec.now()
	res, err := in.pl.ExtractCtx(ctx, st)
	end()
	if err != nil {
		o.fault = err
		return o
	}
	o.facts = planFacts(res)
	if rec != nil {
		// The plan reports its own stage times; lay them out as children.
		at := t0
		for k, name := range []string{"plan.discretize", "plan.topology", "plan.nearfield", "plan.factorize", "plan.solve"} {
			d := int64(o.facts.stages[k] * 1e9)
			rec.add(i, root, name, at, d)
			at += d
			o.facts.spanned += o.facts.stages[k]
		}
	}
	o.relErr, o.fault = in.refs.check(sweepKey(h), res.C)
	return o
}

func (in *sweepInst) probes(cfg config, rec *recorder, untraced, traced []outcome, led map[string]float64) error {
	ops := append(append([]outcome(nil), untraced...), traced...)
	planStageMedians(ops, led)
	st := in.pl.Stats()
	reused := float64(st.NearReused - in.afterCold.NearReused)
	computed := float64(st.NearComputed - in.afterCold.NearComputed)
	if reused+computed > 0 {
		led["plan.near_reuse_ratio"] = reused / (reused + computed)
	}
	led["plan.fact_reused"] = float64(st.FactReused-in.afterCold.FactReused) / float64(len(ops))
	var warm float64
	for _, o := range ops {
		warm += float64(o.facts.iters)
	}
	led["plan.warm_iters_ratio"] = warm / float64(len(ops)) / float64(in.coldIters)

	last := sweepStructure(cfg.smoke, in.seq[(len(ops)-1)%len(in.seq)])
	var err error
	led["plan.hit_us"] = 1e6 * medianOf(200, func() { _, err = in.pl.Extract(last) })
	return err
}
