// Benchfig8 regenerates the data of paper Figure 8: parallel efficiency
// versus processor count for (a) this work's shared-memory backend, (b)
// this work's distributed-memory (simulated MPI) backend — both measured
// on the local machine on the bus structure — and (c, d) the parallel
// fast-multipole and parallel precorrected-FFT rivals, both re-measured
// with the from-scratch baselines on the 2x2 bus (the example their
// original papers report) and reproduced from the published anchor points
// via the calibrated cost model.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"time"

	"parbem"
	"parbem/internal/costmodel"
	"parbem/internal/fmm"
	"parbem/internal/geom"
	"parbem/internal/op"
	"parbem/internal/pcbem"
	"parbem/internal/pfft"
	"parbem/internal/solver"
)

func main() {
	busM := flag.Int("bus", 24, "bus size for this work's curves (m = n)")
	rivalEdge := flag.Float64("rivaledge", 0.35e-6, "panel edge for the rival baselines (m)")
	maxD := flag.Int("maxd", 10, "largest node count")
	reps := flag.Int("reps", 3, "repetitions (minimum time)")
	flag.Parse()

	ds := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if *maxD < 10 {
		ds = ds[:*maxD]
	}

	fmt.Printf("Figure 8: parallel efficiency (%%) vs number of processors\n")
	fmt.Printf("this work measured on the %dx%d bus; rivals measured on the 2x2 bus (as in their papers)\n\n", *busM, *busM)

	st := parbem.NewBus(*busM, *busM).Build()
	omp := measureThisWork(st, parbem.SharedMem, ds, *reps)
	mpi := measureThisWork(st, parbem.Distributed, ds, *reps)
	fmmEff := measureRival(func(panels []geom.Panel, d int) op.Operator {
		return fmm.NewOperator(panels, fmm.Options{Workers: d})
	}, ds, *rivalEdge, *reps)
	pfftEff := measureRival(func(panels []geom.Panel, d int) op.Operator {
		return pfft.NewOperator(panels, pfft.Options{Workers: d})
	}, ds, *rivalEdge, *reps)

	fmt.Printf("%3s %14s %14s %14s %14s %12s %12s\n",
		"D", "OpenMP(meas)", "MPI(meas)", "FMM[7](meas)", "pFFT[1](meas)", "FMM[7]pub", "pFFT[1]pub")
	for i, d := range ds {
		fmt.Printf("%3d %13.0f%% %13.0f%% %13.0f%% %13.0f%% %11.0f%% %11.0f%%\n",
			d, 100*omp[i], 100*mpi[i], 100*fmmEff[i], 100*pfftEff[i],
			100*costmodel.ParallelFMM.Efficiency(d),
			100*costmodel.ParallelPFFT.Efficiency(d))
	}
	fmt.Println("\npaper anchors: this work ~91% (OpenMP, 4) and ~89% (MPI, 10); FMM 65% @ 8; pFFT 42% @ 8")
}

// measureThisWork times full extractions at each D and returns efficiency
// relative to D=1.
func measureThisWork(st *parbem.Structure, backend solver.Backend, ds []int, reps int) []float64 {
	times := make([]time.Duration, len(ds))
	for i, d := range ds {
		b := backend
		if d == 1 {
			b = parbem.Serial
		}
		times[i] = bestOf(reps, func() time.Duration {
			res, err := parbem.Extract(st, parbem.Options{Backend: b, Workers: d})
			if err != nil {
				log.Fatal(err)
			}
			return res.Timing.Total
		})
	}
	return efficiencies(times, ds)
}

// measureRival times the pipeline's GMRES solve (preconditioner build
// included) over a rival operator built with D matvec workers on the 2x2
// bus: the harness builds the operator itself, outside the timed region,
// and wraps it as bench/ does.
func measureRival(build func(panels []geom.Panel, d int) op.Operator, ds []int, edge float64, reps int) []float64 {
	prob, err := pcbem.NewProblem(parbem.NewBus(2, 2).Build(), edge)
	if err != nil {
		log.Fatal(err)
	}
	times := make([]time.Duration, len(ds))
	for i, d := range ds {
		a := build(prob.Panels, d)
		times[i] = bestOf(reps, func() time.Duration {
			t0 := time.Now()
			pl, err := op.NewWithOperator(prob.Spec(), a, op.Options{Tol: 1e-4})
			if err == nil {
				_, err = pl.ExtractWarmCtx(context.Background(), nil)
			}
			if err != nil {
				log.Fatal(err)
			}
			return time.Since(t0)
		})
	}
	return efficiencies(times, ds)
}

func bestOf(reps int, f func() time.Duration) time.Duration {
	min := time.Duration(math.MaxInt64)
	for r := 0; r < reps; r++ {
		if t := f(); t < min {
			min = t
		}
	}
	return min
}

func efficiencies(times []time.Duration, ds []int) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(times[0]) / (float64(times[i]) * float64(d))
	}
	return out
}
