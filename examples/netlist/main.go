// Netlist demonstrates the full tool flow: read a structure from a
// geometry file (written inline here), extract the capacitance matrix in
// parallel, sanity-check the Maxwell structure, and emit a SPICE
// subcircuit for circuit back-annotation.
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	"parbem"
)

const geometry = `
# Three-net clock spine: two parallel signal wires under a crossing strap.
structure clock-spine
unit 1e-6
conductor clk
wire x  0  0.0 0   30 1.2 0.6
conductor data
wire x  0  2.8 0   30 1.0 0.6
conductor strap
wire y  0  1.4 1.8 12 1.5 0.6
`

func main() {
	st, err := parbem.ReadStructure(strings.NewReader(geometry))
	if err != nil {
		log.Fatal(err)
	}

	res, err := parbem.Extract(st, parbem.Options{Backend: parbem.SharedMem})
	if err != nil {
		log.Fatal(err)
	}

	names := make([]string, st.NumConductors())
	for i, c := range st.Conductors {
		names[i] = c.Name
	}

	fmt.Printf("%s: N = %d basis functions, extracted in %v\n\n",
		st.Name, res.N, res.Timing.Total.Round(1000))
	fmt.Println(parbem.FormatMatrix(res.C, 1e15, names))

	if v := parbem.CheckMaxwell(res.C, 0); len(v) > 0 {
		fmt.Println("warnings:")
		for _, w := range v {
			fmt.Println(" ", w)
		}
	} else {
		fmt.Println("Maxwell-matrix structure: clean")
	}

	fmt.Println("\nSPICE netlist:")
	if err := parbem.WriteSpice(os.Stdout, res.C, names, 1e-18); err != nil {
		log.Fatal(err)
	}

	caps := parbem.CapToInfinity(res.C)
	fmt.Println("\ntotal capacitance per net (fF):")
	for i, c := range caps {
		fmt.Printf("  %-8s %8.4f\n", names[i], c*1e15)
	}
}
