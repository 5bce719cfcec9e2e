// Benchtables regenerates the paper's Tables 1-3 on the local machine.
//
//	benchtables -table 1    integration-acceleration comparison (Table 1, rows 0-3)
//	benchtables -table 2    instantiable vs FASTCAP-analog (Table 2)
//	benchtables -table 3    parallel scalability of the bus (Table 3)
//	benchtables -table 0    all tables
//
// Absolute numbers differ from the paper (different host, Go vs C++, and
// simulated substrates); the comparisons that must hold are the relative
// ones: the ranking of acceleration techniques, the instantiable-basis
// speedup and memory advantage, and the near-linear parallel scaling.
// Table 1's row 4, rational fitting, is not run: its fit missed the
// 1e-3 accuracy a row needs (4.3% max error) whatever its speed, and
// REPRODUCTION.md records where its code last lived.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"time"

	"parbem"
	"parbem/internal/kernel"
	"parbem/internal/solver"
	"parbem/internal/tabulate"
)

func main() {
	table := flag.Int("table", 0, "which table to regenerate (1, 2, 3; 0 = all)")
	busM := flag.Int("bus", 24, "bus size for table 3 (m = n)")
	reps := flag.Int("reps", 3, "repetitions (minimum time reported)")
	flag.Parse()

	switch *table {
	case 1:
		printTable1(table1())
	case 2:
		table2()
	case 3:
		table3(*busM, *reps)
	case 0:
		printTable1(table1())
		fmt.Println()
		table2()
		fmt.Println()
		table3(*busM, *reps)
	default:
		log.Fatalf("unknown table %d", *table)
	}
}

// eq13 is the paper's original 2-D expression (Eq. 13) for a w x h source
// rectangle and an in-plane point, as printed: the four-corner difference
// of X*ln(Y+r) + Y*ln(X+r), eight standard-library logarithms. It is the
// baseline of Table 1; the solver's own closed form is technique 3.
func eq13(w, h, x, y float64) float64 {
	f := func(X, Y float64) float64 {
		r := math.Hypot(X, Y)
		var s float64
		if X != 0 {
			s += X * math.Log(Y+r)
		}
		if Y != 0 {
			s += Y * math.Log(X+r)
		}
		return s
	}
	return f(x, y) - f(x-w, y) - f(x, y-h) + f(x-w, y-h)
}

// table1Row is one technique's row of Table 1.
type table1Row struct {
	name    string
	ns      float64 // time per evaluation
	speedup float64 // row 0's time over this row's
	bytes   int     // table memory
	maxErr  float64 // max relative error against row 0 at the probes
}

// table1 measures the integration acceleration techniques of paper
// Section 4.2 on the simplified 2-D expression (Eq. 13), like paper
// Table 1's rows 0-3.
func table1() []table1Row {
	// As in paper Section 4.3, the comparison fixes one template geometry
	// (a unit source rectangle) and treats the 2-D expression as a
	// function of the in-plane evaluation point (x, y). Probes stay
	// outside the rectangle and within the approximation distance.
	const w, h = 1.0, 1.0
	const lo, hi = -2.0, 3.0
	type probe struct{ x, y float64 }
	var probes []probe
	for i := 0; len(probes) < 512; i++ {
		x := lo + math.Mod(math.Sqrt2*float64(i+1), 1)*(hi-lo)
		y := lo + math.Mod(1.7320508075688772*float64(i+1), 1)*(hi-lo)
		// Keep clear of the rectangle edges where the integrand kinks.
		if x > -0.2 && x < w+0.2 && y > -0.2 && y < h+0.2 {
			continue
		}
		probes = append(probes, probe{x, y})
	}

	analytic := func(p probe) float64 { return eq13(w, h, p.x, p.y) }

	// Build the accelerated evaluators (setup time excluded, as in the
	// paper: tables are built once per template class).
	direct := tabulate.Build([]tabulate.Dim{{Min: lo, Max: hi, N: 320}, {Min: lo, Max: hi, N: 320}},
		func(q []float64) float64 {
			return kernel.RectPotential(0, w, 0, h, q[0], q[1], 0)
		})
	indef := tabulate.Build([]tabulate.Dim{{Min: lo - w, Max: hi, N: 340}, {Min: lo - h, Max: hi, N: 340}},
		func(q []float64) float64 {
			return kernel.F2(q[0], q[1], 0)
		})
	indefEval := func(p probe) float64 {
		return indef.Eval2(p.x, p.y) - indef.Eval2(p.x-w, p.y) -
			indef.Eval2(p.x, p.y-h) + indef.Eval2(p.x-w, p.y-h)
	}

	techniques := []struct {
		name string
		eval func(probe) float64
		mem  int
	}{
		{"0. original analytical expr.", analytic, 0},
		{"1. direct tabulation", func(p probe) float64 {
			return direct.Eval2(p.x, p.y)
		}, direct.Bytes()},
		{"2. tabulation of indef. int.", indefEval, indef.Bytes()},
		{"3. tabulation of exp. routines", func(p probe) float64 {
			return kernel.RectPotential(0, w, 0, h, p.x, p.y, 0)
		}, kernel.LogTableBytes},
	}

	// Time each technique and measure its max relative error.
	rows := make([]table1Row, len(techniques))
	for ti, tech := range techniques {
		// Warm up + error measurement.
		var maxErr float64
		for _, p := range probes {
			got := tech.eval(p)
			want := analytic(p)
			if rel := math.Abs(got-want) / math.Abs(want); rel > maxErr {
				maxErr = rel
			}
		}
		const loops = 200
		t0 := time.Now()
		var sink float64
		for l := 0; l < loops; l++ {
			for _, p := range probes {
				sink += tech.eval(p)
			}
		}
		ns := float64(time.Since(t0).Nanoseconds()) / float64(loops*len(probes))
		_ = sink
		rows[ti] = table1Row{name: tech.name, ns: ns, bytes: tech.mem, maxErr: maxErr}
		rows[ti].speedup = rows[0].ns / ns
	}
	return rows
}

// printTable1 prints table1's rows beside the paper's.
func printTable1(rows []table1Row) {
	fmt.Println("=== Table 1: integration acceleration techniques (2-D expression, Eq. 13) ===")
	fmt.Printf("%-33s %10s %9s %10s %9s\n", "technique", "time", "speedup", "memory", "max err")
	for _, r := range rows {
		fmt.Printf("%-33s %8.0fns %8.2fx %9.1fKB %9.2e\n",
			r.name, r.ns, r.speedup, float64(r.bytes)/1024, r.maxErr)
	}
	fmt.Println("\npaper: 280/136/240/128 ns -> 1.00/2.06/1.16/2.20x; 0/1.5/2.3/2.0 MB")
	fmt.Println("paper row 4, rational fitting (224 ns, 1.24x, ~0 MB): not reproduced, see REPRODUCTION.md")
}

// table2 reruns the Table 2 experiment: instantiable basis versus the
// FASTCAP-analog, with accuracy against a refined reference. The paper's
// two instantiable rows, with and without its Section 4.2 integration
// acceleration, are one here: the accelerated closed forms are the only
// ones the solver has (Table 1 holds the comparison).
func table2() {
	fmt.Println("=== Table 2: transistor interconnect (instantiable vs FASTCAP-analog) ===")
	st := parbem.NewInterconnect().Build()

	ref, err := parbem.ExtractReference(st, 0.3e-6)
	if err != nil {
		log.Fatal(err)
	}

	t0 := time.Now()
	fc, err := parbem.ExtractFastCapLike(st, 0.4e-6, parbem.FastCapOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fcTime := time.Since(t0)

	res, err := parbem.Extract(st, parbem.Options{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-28s %12s %12s %10s %8s\n", "method", "setup", "total", "memory", "error")
	row := func(name string, setup, total time.Duration, mem int, e float64) {
		fmt.Printf("%-28s %12v %12v %8.0fKB %7.2f%%\n",
			name, setup.Round(time.Millisecond), total.Round(time.Millisecond),
			float64(mem)/1024, 100*e)
	}
	row("FASTCAP-analog", fcTime, fcTime, fc.NumPanels*8*40, parbem.CapError(fc.C, ref.C))
	row("instantiable", res.Timing.Setup, res.Timing.Total,
		res.MatrixBytes, parbem.CapError(res.C, ref.C))
	fmt.Printf("\nspeedup vs FASTCAP-analog: %.1fx   memory ratio: %.1fx\n",
		float64(fcTime)/float64(res.Timing.Total),
		float64(fc.NumPanels*8*40)/float64(res.MatrixBytes))
	fmt.Println("paper: setup 94.1 -> 50.7 ms (86% improvement in their breakdown), total 340 -> 54.4 ms (6.2x), memory 24 MB -> 2.5 MB")
}

// table3 measures the parallel scalability of the bus structure on both
// backends (paper Table 3).
func table3(busM, reps int) {
	fmt.Printf("=== Table 3: %dx%d bus parallel performance ===\n", busM, busM)
	st := parbem.NewBus(busM, busM).Build()

	best := func(backend solver.Backend, d int) time.Duration {
		min := time.Duration(math.MaxInt64)
		for r := 0; r < reps; r++ {
			res, err := parbem.Extract(st, parbem.Options{Backend: backend, Workers: d})
			if err != nil {
				log.Fatal(err)
			}
			if res.Timing.Total < min {
				min = res.Timing.Total
			}
		}
		return min
	}

	serial := best(parbem.Serial, 1)
	fmt.Printf("\nshared-memory system (paper: 40.5s/21.7s/11.1s -> 93%%/91%% eff.)\n")
	fmt.Printf("%4s %12s %9s %6s\n", "D", "time", "speedup", "eff.")
	fmt.Printf("%4d %12v %8.2fx %5.0f%%\n", 1, serial.Round(time.Millisecond), 1.0, 100.0)
	for _, d := range []int{2, 4} {
		td := best(parbem.SharedMem, d)
		s := float64(serial) / float64(td)
		fmt.Printf("%4d %12v %8.2fx %5.0f%%\n", d, td.Round(time.Millisecond), s, 100*s/float64(d))
	}

	fmt.Printf("\ndistributed-memory system (paper: 44.1s ... 4.95s at 10 -> 89%% eff.)\n")
	fmt.Printf("%4s %12s %9s %6s\n", "D", "time", "speedup", "eff.")
	fmt.Printf("%4d %12v %8.2fx %5.0f%%\n", 1, serial.Round(time.Millisecond), 1.0, 100.0)
	for _, d := range []int{2, 4, 8, 10} {
		td := best(parbem.Distributed, d)
		s := float64(serial) / float64(td)
		fmt.Printf("%4d %12v %8.2fx %5.0f%%\n", d, td.Round(time.Millisecond), s, 100*s/float64(d))
	}
}
