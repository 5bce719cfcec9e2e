package main

import (
	"context"
	"fmt"
	"time"

	"parbem"
	"parbem/internal/assembly"
	"parbem/internal/basis"
	"parbem/internal/batch"
	"parbem/internal/kernel"
	"parbem/internal/linalg"
	"parbem/internal/mpi"
	"parbem/internal/op"
	"parbem/internal/par"
	"parbem/internal/sched"
	"parbem/internal/solver"
)

// tmplBus16 is the paper's own path: the instantiable-basis solver on a
// bus crossbar, whose run is nearly all template fill.
var tmplBus16 = &workloadDef{
	name:   "tmpl_bus16",
	why:    "parbem.Extract on a 16x16 bus: the paper's template fill (about 88% of the op) plus the dense SPD solve; bypasses panels, GMRES, plans and the service",
	expect: 3 * time.Second,
	setup:  setupTmpl,
	writeRef: func(dir string) error {
		// The template solver has no finer reference than itself: pin
		// this commit's serial result.
		res, err := parbem.Extract(tmplStructure(false), parbem.Options{Backend: parbem.Serial})
		if err != nil {
			return err
		}
		return writeReference(dir, "tmpl_bus16", "parbem.Extract, Serial backend, at the commit that wrote this file",
			tmplLimit, map[string]*parbem.Matrix{"bus": res.C})
	},
	liveRefs: func() (*references, error) {
		res, err := parbem.Extract(tmplStructure(true), parbem.Options{Backend: parbem.Serial})
		if err != nil {
			return nil, err
		}
		return &references{limit: tmplLimit, cases: map[string]*parbem.Matrix{"bus": res.C}}, nil
	},
}

func tmplStructure(smoke bool) *parbem.Structure {
	if smoke {
		return parbem.NewBus(2, 2).Build()
	}
	return parbem.NewBus(16, 16).Build()
}

type tmplInst struct {
	st   *parbem.Structure
	p    int
	refs *references
}

func setupTmpl(cfg config, refs *references) (instance, error) {
	in := &tmplInst{st: tmplStructure(cfg.smoke), p: cfg.p, refs: refs}
	if o := in.op(context.Background(), -1, nil); o.fault != nil { // warm-up
		return nil, o.fault
	}
	return in, nil
}

func (in *tmplInst) traceShape() (int, int) { return 1, 3 }
func (in *tmplInst) cycle() int             { return 1 }
func (in *tmplInst) clients() int           { return 1 }
func (in *tmplInst) close()                 {}

func (in *tmplInst) op(_ context.Context, i int, rec *recorder) (o outcome) {
	var c *parbem.Matrix
	if rec == nil {
		res, err := parbem.Extract(in.st, parbem.Options{Backend: parbem.SharedMem, Workers: in.p})
		if err != nil {
			o.fault = err
			return o
		}
		c = res.C
	} else {
		var err error
		if c, o.facts.spanned, err = in.recomposed(i, rec); err != nil {
			o.fault = err
			return o
		}
	}
	o.relErr, o.fault = in.refs.check("bus", c)
	return o
}

// recomposed is solver.Extract spelled out over the layers' public
// functions, one span per call.
func (in *tmplInst) recomposed(i int, rec *recorder) (*parbem.Matrix, float64, error) {
	t := rec.traceOp(i)
	defer t.end()
	if err := in.st.Validate(); err != nil {
		return nil, 0, err
	}
	var set *basis.Set
	if err := t.step("solver.BuildBasis", func() (err error) {
		set, err = solver.BuildBasis(in.st, basis.BuilderOptions{})
		return err
	}); err != nil {
		return nil, 0, err
	}
	var P *linalg.Dense
	t.step("par.Fill", func() error {
		P = par.Fill(set, assembly.NewIntegrator(), par.Options{Workers: in.p})
		return nil
	})
	t.step("linalg.Scal", func() error {
		linalg.Scal(1/(kernel.FourPi*kernel.Eps0), P.Data)
		return nil
	})
	var c *parbem.Matrix
	err := t.step("op.SolveSPD", func() error {
		res, err := solveTemplateSystem(set, P)
		if err == nil {
			c = res
		}
		return err
	})
	return c, t.spanned.Seconds(), err
}

// solveTemplateSystem is the direct path of the template solver:
// moment-weighted indicator right-hand sides through op's equilibrated
// Cholesky and capacitance reduction.
func solveTemplateSystem(set *basis.Set, P *linalg.Dense) (*parbem.Matrix, error) {
	moments := set.Moments()
	phi := linalg.NewDense(set.N(), set.NumConductors)
	for k, f := range set.Functions {
		phi.Set(k, f.Conductor, moments[k])
	}
	pl, err := op.NewFromDense(P, op.Options{Direct: true})
	if err != nil {
		return nil, err
	}
	res, err := pl.ExtractRHS(phi)
	if err != nil {
		return nil, err
	}
	return res.C, nil
}

func (in *tmplInst) probes(cfg config, rec *recorder, _, _ []outcome, led map[string]float64) error {
	var set *basis.Set
	var err error
	led["basis.build_ms"] = 1e3 * medianOf(5, func() {
		set, err = solver.BuildBasis(in.st, basis.BuilderOptions{})
	})
	if err != nil {
		return err
	}
	led["basis.functions"] = float64(set.N())
	led["basis.templates"] = float64(set.M())
	pairs := float64(assembly.NumPairs(set.M()))
	led["assembly.pairs"] = pairs
	led["op.solve_spd_s"] = median(rec.durations("op.SolveSPD"))

	// The scaling probes: the fill on one worker against every core.
	led["assembly.serial_fill_s"] = timeOf(func() { assembly.FillSerial(set, assembly.NewIntegrator()) })
	fill1 := timeOf(func() { par.Fill(set, assembly.NewIntegrator(), par.Options{Workers: 1}) })
	led["par.fill_1w_s"] = fill1
	led["assembly.template_pair_ns"] = 1e9 * fill1 / pairs
	w := scaleWorkers()
	atWidth(w, func() {
		fillP := timeOf(func() { par.Fill(set, assembly.NewIntegrator(), par.Options{Workers: w}) })
		led["par.fill_pw_s"] = fillP
		led["par.fill_efficiency"] = fill1 / (float64(w) * fillP)
		mpiP := timeOf(func() { mpi.FillDistributed(set, assembly.NewIntegrator(), mpi.NewNetwork(w)) })
		led["mpi.fill_pw_s"] = mpiP
		led["mpi.fill_efficiency"] = fill1 / (float64(w) * mpiP)
		pool := sched.NewPool(w)
		led["sched.map_overhead_us"] = 1e6 * medianOf(200, func() { pool.Map(16*w, func(int) {}) })
		pool.Close()
	})

	eng := batch.New(batch.Options{Workers: in.p})
	defer eng.Close()
	led["batch.engine_cold_s"] = timeOf(func() { _, err = eng.Extract(in.st) })
	if err != nil {
		return fmt.Errorf("batch engine: %w", err)
	}
	s0 := eng.Stats()
	led["batch.engine_warm_s"] = timeOf(func() { _, err = eng.Extract(in.st) })
	if err != nil {
		return fmt.Errorf("batch engine: %w", err)
	}
	s1 := eng.Stats()
	if looked := float64(s1.PairHits-s0.PairHits) + float64(s1.PairMisses-s0.PairMisses); looked > 0 {
		led["batch.pair_hit_ratio"] = float64(s1.PairHits-s0.PairHits) / looked
	}
	return nil
}
