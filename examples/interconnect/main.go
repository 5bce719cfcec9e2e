// Interconnect reproduces the Table 2 experiment on the synthetic
// transistor-interconnect structure: the instantiable-basis solver
// versus a FASTCAP-style multipole baseline, with accuracy judged against
// a refined piecewise-constant reference. (The paper's table has a second
// instantiable row, with and without its Section 4.2 integration
// acceleration; here the accelerated closed forms are the only ones.)
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"parbem"
)

func main() {
	refEdge := flag.Float64("refedge", 0.3e-6, "reference panel edge (m)")
	fcEdge := flag.Float64("fcedge", 0.4e-6, "FastCap-like panel edge (m)")
	flag.Parse()

	st := parbem.NewInterconnect().Build()
	fmt.Printf("structure: %s (%d conductors, %d faces)\n\n",
		st.Name, st.NumConductors(), st.TotalFaces())

	// Refined reference (the paper refines FASTCAP until converged).
	t0 := time.Now()
	ref, err := parbem.ExtractReference(st, *refEdge)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reference: %d panels, %v\n\n", ref.NumPanels, time.Since(t0).Round(time.Millisecond))

	// FASTCAP-analog baseline.
	t0 = time.Now()
	fc, err := parbem.ExtractFastCapLike(st, *fcEdge, parbem.FastCapOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fcTime := time.Since(t0)

	// Instantiable basis.
	t0 = time.Now()
	res, err := parbem.Extract(st, parbem.Options{Backend: parbem.Serial})
	if err != nil {
		log.Fatal(err)
	}
	resTime := time.Since(t0)

	fmt.Println("method                          total time    setup time     memory       error")
	row := func(name string, total, setup time.Duration, mem int, errRel float64) {
		fmt.Printf("%-30s %12v %12v %9.1f KB    %5.2f%%\n",
			name, total.Round(time.Millisecond), setup.Round(time.Millisecond),
			float64(mem)/1024, 100*errRel)
	}
	fcMem := ref.NumPanels * 8 * 40 // sparse near-field + tree estimate
	row("FASTCAP-analog (multipole)", fcTime, fcTime, fcMem, parbem.CapError(fc.C, ref.C))
	row("instantiable basis", resTime, res.Timing.Setup, res.MatrixBytes, parbem.CapError(res.C, ref.C))

	fmt.Printf("\nspeedup vs FASTCAP-analog: %.1fx (N = %d basis functions vs %d panels)\n",
		float64(fcTime)/float64(resTime), res.N, ref.NumPanels)
}
