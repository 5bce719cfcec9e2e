// Capx is the command-line field solver: it builds one of the benchmark
// structures (or a parameterized variant), runs capacitance extraction
// with the selected backend, and prints the Maxwell capacitance matrix and
// the timing breakdown.
//
// Usage examples:
//
//	capx -structure crossing
//	capx -structure bus -m 24 -n 24 -backend shared -workers 4
//	capx -structure interconnect -backend mpi -workers 10
//
// Piecewise-constant pipeline mode runs the unified operator pipeline
// instead: -backend auto|dense|fastcap|fmm|pfft selects the solve backend
// (auto picks per the cost model from panel count and grid fill factor),
// reporting the resolved backend, panel count and Krylov iteration
// totals. Every Krylov solve is preconditioned by near-field block-Jacobi;
// -precond auto|block only chooses the dense path, where block solves by
// GMRES instead of the default direct factorization:
//
//	capx -structure bus -m 16 -n 16 -backend auto -edge 4e-7 -tol 1e-5
//	capx -structure bus -m 3 -n 3 -backend dense -precond block
//
// Sweep mode runs a separation (H) sweep of the crossing or bus
// structure through one staged extraction plan: after the first point,
// only cross-layer near-field integrals are re-integrated, unchanged
// block factors are adopted and the solves warm-start, reporting
// per-point stage timings and the cold-vs-warm amortization:
//
//	capx -structure crossing -sweep 16 -backend fastcap -edge 3e-7
//	capx -structure bus -m 8 -n 8 -sweep 8 -hmin 5e-7 -hmax 2e-6
//
// Every run accepts -json for machine-readable output (capacitance
// matrix, backend/precond choice, iteration counts, per-stage timings;
// for the template solver the phase timings, the fill's pair and
// symmetry-class counts, and the inertia the direct solve found — a
// nonzero negative_pivots says the system matrix was indefinite) for
// serving and telemetry integrations.
//
// Remote mode sends the same pipeline and sweep requests to a running
// capxd daemon instead of solving locally, so repeated invocations ride
// the server's warm plan/basis caches:
//
//	capx -remote http://localhost:8437 -structure bus -backend fastcap
//	capx -remote http://localhost:8437 -structure crossing -sweep 8
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"time"

	"parbem"
	"parbem/internal/serve"
)

func main() {
	var (
		structure = flag.String("structure", "crossing", "crossing | bus | interconnect | plates")
		input     = flag.String("input", "", "read structure from a geometry file instead")
		m         = flag.Int("m", 8, "bus: lower-layer wire count")
		n         = flag.Int("n", 8, "bus: upper-layer wire count")
		backend   = flag.String("backend", "serial", "instantiable-basis solver, by fill backend: serial | shared | mpi; piecewise-constant pipeline, by operator: auto | dense | fastcap | fmm | pfft")
		precond   = flag.String("precond", "auto", "pipeline preconditioner, always near-field block-Jacobi: auto | block (block with -backend dense solves by GMRES instead of the direct factorization)")
		workers   = flag.Int("workers", 4, "parallel nodes D")
		units     = flag.Float64("unit", 1e15, "output scale (1e15 = fF)")
		maxPrint  = flag.Int("maxprint", 12, "largest matrix printed in full")
		spice     = flag.String("spice", "", "also write a SPICE netlist to this file")
		check     = flag.Bool("check", true, "validate the Maxwell matrix structure")
		tol       = flag.Float64("tol", 1e-4, "pipeline iterative solver relative tolerance")
		edge      = flag.Float64("edge", 0.5e-6, "pipeline max panel edge (m)")
		jsonOut   = flag.Bool("json", false, "emit machine-readable JSON (capacitance matrix, backend/precond, iterations, per-stage timings) instead of text")
		sweep     = flag.Int("sweep", 0, "h-sweep mode: extract N separation variants through one staged plan (crossing or bus structure)")
		hmin      = flag.Float64("hmin", 0, "sweep: smallest separation (0 = 0.6x the structure default)")
		hmax      = flag.Float64("hmax", 0, "sweep: largest separation (0 = 2x the structure default)")
		remote    = flag.String("remote", "", "run against a capxd daemon at this base URL instead of solving locally (pipeline and sweep modes)")
	)
	flag.Parse()

	if *sweep > 0 {
		if *input != "" {
			log.Fatal("-sweep varies the built-in crossing/bus separation and does not support -input")
		}
		if *remote != "" {
			runRemoteSweep(*remote, *structure, *m, *n, *sweep, *hmin, *hmax, *backend, *precond, *edge, *tol, *jsonOut)
			return
		}
		runSweep(*structure, *m, *n, *sweep, *hmin, *hmax, *backend, *precond, *edge, *tol, *workers, *jsonOut)
		return
	}

	var st *parbem.Structure
	var err error
	if *input != "" {
		f, ferr := os.Open(*input)
		if ferr != nil {
			log.Fatal(ferr)
		}
		st, err = parbem.ReadStructure(f)
		f.Close()
	} else {
		st, err = buildStructure(*structure, *m, *n)
	}
	if err != nil {
		log.Fatal(err)
	}

	if *remote != "" {
		if !isPipelineBackend(*backend) {
			log.Fatalf("-remote needs a pipeline backend (auto|dense|fastcap|fmm|pfft), got %q", *backend)
		}
		runRemote(*remote, st, *backend, *precond, *edge, *tol, *units, *maxPrint, *check, *jsonOut)
		return
	}
	if isPipelineBackend(*backend) {
		runPipeline(st, *backend, *precond, *edge, *tol, *workers, *units, *maxPrint, *check, *jsonOut)
		return
	}
	be, err := parseBackend(*backend)
	if err != nil {
		log.Fatal(err)
	}
	opt := parbem.Options{Backend: be, Workers: *workers}

	res, err := parbem.Extract(st, opt)
	if err != nil {
		log.Fatal(err)
	}

	if *jsonOut {
		ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 }
		emitJSON(struct {
			Structure string           `json:"structure"`
			Backend   string           `json:"backend"`
			N         int              `json:"basis_functions"`
			M         int              `json:"templates"`
			BasisMs   float64          `json:"basis_ms"`
			SetupMs   float64          `json:"setup_ms"`
			SolveMs   float64          `json:"solve_ms"`
			TotalMs   float64          `json:"total_ms"`
			Fill      parbem.FillStats `json:"fill"`
			NegPivots int              `json:"negative_pivots"`
			Pivots2x2 int              `json:"pivots_2x2"`
			Names     []string         `json:"conductors"`
			CFarads   [][]float64      `json:"c_farads"`
			Warnings  []string         `json:"maxwell_warnings,omitempty"`
		}{
			Structure: st.Name, Backend: opt.Backend.String(), N: res.N, M: res.M,
			BasisMs: ms(res.Timing.BasisGen), SetupMs: ms(res.Timing.Setup),
			SolveMs: ms(res.Timing.Solve), TotalMs: ms(res.Timing.Total),
			Fill: res.Fill, NegPivots: res.Inertia.Negative, Pivots2x2: res.Inertia.Blocks2x2,
			Names: conductorNames(st), CFarads: matrixRows(res.C),
			Warnings: parbem.CheckMaxwell(res.C, 0),
		})
		return
	}

	fmt.Printf("structure : %s (%d conductors)\n", st.Name, st.NumConductors())
	fmt.Printf("backend   : %v, D = %d\n", opt.Backend, nodesUsed(be, *workers))
	fmt.Printf("basis     : N = %d functions, M = %d templates (M/N = %.2f)\n",
		res.N, res.M, float64(res.M)/float64(res.N))
	fmt.Printf("memory    : %.1f KB system matrix\n", float64(res.MatrixBytes)/1024)
	fmt.Printf("timing    : basis %v | setup %v | solve %v | total %v\n",
		res.Timing.BasisGen, res.Timing.Setup, res.Timing.Solve, res.Timing.Total)
	fmt.Printf("setup %%   : %.1f%%\n",
		100*float64(res.Timing.Setup)/float64(res.Timing.Total))
	definite := "positive definite"
	if res.Inertia.Negative > 0 {
		definite = "indefinite"
	}
	fmt.Printf("solve     : LDLt, %d negative pivots, %d 2x2 blocks (system matrix %s)\n",
		res.Inertia.Negative, res.Inertia.Blocks2x2, definite)
	fmt.Printf("fill      : %d far pairs | %d near pairs in %d symmetry classes | table %.1f KB\n\n",
		res.Fill.PairsFar, res.Fill.PairsNear, res.Fill.ClassesIntegrated, float64(res.Fill.TableBytes)/1024)

	printCapacitance(conductorNames(st), res.C, *check, *spice, *units, *maxPrint)
}

// printCapacitance ends every local report: under -check the violations
// of the Maxwell structure, then the matrix under the conductors' names.
// A non-empty spice also writes the matrix there as a SPICE netlist.
func printCapacitance(names []string, c *parbem.Matrix, check bool, spice string, units float64, maxPrint int) {
	var violations []string
	if check {
		violations = parbem.CheckMaxwell(c, 0)
	}
	if len(violations) > 0 {
		fmt.Println("Maxwell-matrix warnings:")
		for _, v := range violations {
			fmt.Printf("  %s\n", v)
		}
		fmt.Println()
	}
	if spice != "" {
		f, err := os.Create(spice)
		if err != nil {
			log.Fatal(err)
		}
		if err := parbem.WriteSpice(f, c, names, 1e-20); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("netlist   : %s\n\n", spice)
	}
	fmt.Println("capacitance matrix (scaled):")
	printMatrix(c, units, names, maxPrint)
}

// printMatrix prints the full matrix up to maxPrint conductors, else the
// diagonal with each row's strongest coupling.
func printMatrix(c *parbem.Matrix, units float64, names []string, maxPrint int) {
	nc := c.Rows
	if nc <= maxPrint {
		fmt.Print(parbem.FormatMatrix(c, units, names))
		return
	}
	fmt.Printf("matrix is %dx%d; printing diagonal and strongest coupling per row\n", nc, nc)
	for i := 0; i < nc; i++ {
		best, bj := 0.0, -1
		for j := 0; j < nc; j++ {
			if j != i && -c.At(i, j) > best {
				best, bj = -c.At(i, j), j
			}
		}
		fmt.Printf("C[%3d][%3d] = %10.4f   strongest coupling -> %3d: %10.4f\n",
			i, i, c.At(i, i)*units, bj, best*units)
	}
}

// isPipelineBackend reports whether the -backend value selects the
// unified piecewise-constant pipeline rather than an instantiable-basis
// fill backend.
func isPipelineBackend(name string) bool {
	switch name {
	case "auto", "dense", "fastcap", "fmm", "pfft":
		return true
	}
	return false
}

// pipelineOptions maps the -backend/-precond/-tol flags to pipeline
// options as the service maps its request's selectors
// (serve.PipelineOptions), and hands -workers to whichever accelerated
// operator may run (shared by the single-shot and sweep modes).
func pipelineOptions(kind, precond string, tol float64, workers int) parbem.PipelineOptions {
	opt, err := serve.PipelineOptions(kind, precond, tol)
	if err != nil {
		log.Fatal(err)
	}
	switch opt.Backend {
	case parbem.BackendAuto:
		opt.FMM = &parbem.FastCapOptions{Workers: workers}
		opt.PFFT = &parbem.PFFTOptions{Workers: workers}
	case parbem.BackendFMM:
		opt.FMM = &parbem.FastCapOptions{Workers: workers}
	case parbem.BackendPFFT:
		opt.PFFT = &parbem.PFFTOptions{Workers: workers}
	}
	return opt
}

// matrixRows flattens a capacitance matrix for JSON output.
func matrixRows(c *parbem.Matrix) [][]float64 {
	rows := make([][]float64, c.Rows)
	for i := range rows {
		rows[i] = append([]float64(nil), c.Row(i)...)
	}
	return rows
}

// conductorNames lists the structure's conductor names.
func conductorNames(st *parbem.Structure) []string {
	names := make([]string, st.NumConductors())
	for i, c := range st.Conductors {
		names[i] = c.Name
	}
	return names
}

// emitJSON marshals v to stdout.
func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Fatal(err)
	}
}

// runPipeline solves the structure through the unified operator pipeline
// and reports it in the daemon's record: -json prints exactly what POST
// /extract would answer, less the job id and the reuse marker.
func runPipeline(st *parbem.Structure, kind, precond string, edge, tol float64, workers int, units float64, maxPrint int, check bool, jsonOut bool) {
	opt := pipelineOptions(kind, precond, tol, workers)

	t0 := time.Now()
	res, err := parbem.ExtractPipeline(st, edge, opt)
	if err != nil {
		log.Fatal(err)
	}
	rec := serve.NewExtractResponse(st, res, kind, precond, edge, tol, time.Since(t0))
	if jsonOut {
		emitJSON(rec)
		return
	}
	printExtract(rec, "", units, maxPrint, check)
}

// printExtract is the text report of one pipeline extraction, solved
// here or by a daemon (served says where).
func printExtract(res *serve.ExtractResponse, served string, units float64, maxPrint int, check bool) {
	fmt.Printf("structure : %s (%d conductors)%s\n", res.Structure, len(res.Conductors), served)
	fmt.Printf("backend   : %s (requested %s), N = %d panels, edge = %g m", res.Backend, res.Requested, res.NumPanels, res.EdgeM)
	if res.Reused != "" {
		fmt.Printf(", reused %s", res.Reused)
	}
	fmt.Println()
	if res.Iterations > 0 {
		fmt.Printf("krylov    : %d GMRES iterations total (tol %g, precond %s, precision %s, one search space for all conductors)\n",
			res.Iterations, res.Tol, res.Precond, res.Precision)
	}
	fmt.Printf("timing    : setup %.2f ms | solve %.2f ms | total %.2f ms\n\n",
		res.SetupMs, res.SolveMs, res.TotalMs)
	printCapacitance(res.Conductors, rowsToMatrix(res.CFarads), check, "", units, maxPrint)
}

// sweepPoint is the per-variant record of a sweep (shared by the text
// and JSON outputs).
type sweepPoint struct {
	H          float64     `json:"h_m"`
	Iterations int         `json:"iterations"`
	Reused     string      `json:"reused"`
	DiscMs     float64     `json:"discretize_ms"`
	TopoMs     float64     `json:"topology_ms"`
	NearMs     float64     `json:"near_field_ms"`
	FactMs     float64     `json:"factorize_ms"`
	SolveMs    float64     `json:"solve_ms"`
	TotalMs    float64     `json:"total_ms"`
	CFarads    [][]float64 `json:"c_farads,omitempty"`
}

// sweepRange checks the -sweep flags and resolves them into what both
// sweep modes run on: the builder of the structure at separation h and
// the range of h (a zero bound defaults to 0.6x / 2x the structure's own
// separation).
func sweepRange(structure string, m, n, points int, hmin, hmax float64, backend string) (func(h float64) *parbem.Structure, float64, float64) {
	if !isPipelineBackend(backend) {
		log.Fatalf("-sweep needs a pipeline backend (auto|dense|fastcap|fmm|pfft), got %q", backend)
	}
	var defH float64
	var variant func(h float64) *parbem.Structure
	switch structure {
	case "crossing":
		defH = parbem.NewCrossingPair().H
		variant = func(h float64) *parbem.Structure {
			sp := parbem.NewCrossingPair()
			sp.H = h
			return sp.Build()
		}
	case "bus":
		defH = parbem.NewBus(m, n).H
		variant = func(h float64) *parbem.Structure {
			sp := parbem.NewBus(m, n)
			sp.H = h
			return sp.Build()
		}
	default:
		log.Fatalf("-sweep supports the crossing and bus structures (their separation H), got %q", structure)
	}
	if hmin == 0 {
		hmin = 0.6 * defH
	}
	if hmax == 0 {
		hmax = 2 * defH
	}
	if points < 2 || hmax <= hmin {
		log.Fatalf("bad sweep range: %d points over [%g, %g]", points, hmin, hmax)
	}
	return variant, hmin, hmax
}

// runSweep extracts a separation sweep through one staged plan
// (parbem.NewPlan) and reports per-point timings, reuse and the
// cold-vs-warm amortization.
func runSweep(structure string, m, n, points int, hmin, hmax float64, backend, precond string, edge, tol float64, workers int, jsonOut bool) {
	variant, hmin, hmax := sweepRange(structure, m, n, points, hmin, hmax, backend)

	p, err := parbem.NewPlan(parbem.PlanOptions{
		MaxEdge:  edge,
		Pipeline: pipelineOptions(backend, precond, tol, workers),
	})
	if err != nil {
		log.Fatal(err)
	}

	recs := make([]sweepPoint, points)
	var coldMs, warmMs float64
	t0 := time.Now()
	for i := 0; i < points; i++ {
		h := hmin + (hmax-hmin)*float64(i)/float64(points-1)
		res, err := p.Extract(variant(h))
		if err != nil {
			log.Fatalf("sweep point h=%g: %v", h, err)
		}
		recs[i] = sweepPoint{
			H: h, Iterations: res.Iterations, Reused: serve.ReusedName(res.Reused),
			DiscMs:  res.Stages.Discretize.Seconds() * 1e3,
			TopoMs:  res.Stages.Topology.Seconds() * 1e3,
			NearMs:  res.Stages.NearField.Seconds() * 1e3,
			FactMs:  res.Stages.Factorize.Seconds() * 1e3,
			SolveMs: res.Stages.Solve.Seconds() * 1e3,
			TotalMs: res.Total.Seconds() * 1e3,
		}
		if jsonOut {
			recs[i].CFarads = matrixRows(res.C)
		}
		if i == 0 {
			coldMs += recs[i].TotalMs
		} else {
			warmMs += recs[i].TotalMs
		}
	}
	total := time.Since(t0)
	stats := p.Stats()
	warmPer := warmMs / float64(points-1)

	if jsonOut {
		emitJSON(struct {
			Structure string           `json:"structure"`
			Backend   string           `json:"backend"`
			Precond   string           `json:"precond"`
			Edge      float64          `json:"edge_m"`
			Tol       float64          `json:"tol"`
			Points    []sweepPoint     `json:"points"`
			ColdMs    float64          `json:"cold_ms_per_point"`
			WarmMs    float64          `json:"warm_ms_per_point"`
			TotalMs   float64          `json:"total_ms"`
			Stats     parbem.PlanStats `json:"stats"`
		}{
			Structure: structure, Backend: backend, Precond: precond,
			Edge: edge, Tol: tol, Points: recs,
			ColdMs: coldMs, WarmMs: warmPer, TotalMs: total.Seconds() * 1e3,
			Stats: stats,
		})
		return
	}

	fmt.Printf("sweep     : %s, %d points over H = [%g, %g] m, backend %s, edge %g m\n",
		structure, points, hmin, hmax, backend, edge)
	fmt.Printf("%10s %6s %18s %9s %9s %9s %9s %9s\n",
		"h (m)", "iters", "reused", "topo ms", "near ms", "fact ms", "solve ms", "total ms")
	for _, r := range recs {
		fmt.Printf("%10.3g %6d %18s %9.2f %9.2f %9.2f %9.2f %9.2f\n",
			r.H, r.Iterations, r.Reused, r.TopoMs, r.NearMs, r.FactMs, r.SolveMs, r.TotalMs)
	}
	fmt.Printf("\namortize  : cold %.1f ms/pt, warm %.1f ms/pt (%.1fx), sweep total %v\n",
		coldMs, warmPer, coldMs/warmPer, total)
	// The keys of -json's "stats" (plan.Stats).
	fmt.Printf("reuse     : near_reused %d, near_computed %d, classes_integrated %d, dense_reused %d, fact_reused %d, warm_starts %d\n",
		stats.NearReused, stats.NearComputed, stats.ClassesIntegrated, stats.DenseReused, stats.FactReused, stats.WarmStarts)
}

// geometryText serializes a structure to the geomio wire format for the
// remote API.
func geometryText(st *parbem.Structure) string {
	var sb strings.Builder
	if err := parbem.WriteStructure(&sb, st, 0); err != nil {
		log.Fatal(err)
	}
	return sb.String()
}

// runRemote sends one pipeline extraction to a capxd daemon and prints
// the response as runPipeline prints its own.
func runRemote(base string, st *parbem.Structure, kind, precond string, edge, tol, units float64, maxPrint int, check, jsonOut bool) {
	c := serve.NewClient(base)
	res, err := c.Extract(context.Background(), &serve.ExtractRequest{
		Geometry: geometryText(st),
		EdgeM:    edge,
		Backend:  kind,
		Precond:  precond,
		Tol:      tol,
	})
	if err != nil {
		log.Fatalf("remote extract: %v", err)
	}
	if jsonOut {
		emitJSON(res)
		return
	}
	printExtract(res, fmt.Sprintf(", served by %s [job %s]", base, res.JobID), units, maxPrint, check)
}

// runRemoteSweep streams an h-sweep through a capxd daemon: the variant
// geometries are built locally (sweepRange, as in runSweep) and ride the
// server's family-keyed plan cache.
func runRemoteSweep(base, structure string, m, n, points int, hmin, hmax float64, backend, precond string, edge, tol float64, jsonOut bool) {
	variant, hmin, hmax := sweepRange(structure, m, n, points, hmin, hmax, backend)

	req := &serve.SweepRequest{EdgeM: edge, Backend: backend, Precond: precond, Tol: tol}
	hs := make([]float64, points)
	for i := range hs {
		hs[i] = hmin + (hmax-hmin)*float64(i)/float64(points-1)
		req.Variants = append(req.Variants, geometryText(variant(hs[i])))
	}

	var pts []*serve.SweepPoint
	tr, err := serve.NewClient(base).Sweep(context.Background(), req,
		func(p *serve.SweepPoint) { pts = append(pts, p) })
	if err != nil {
		log.Fatalf("remote sweep: %v", err)
	}
	if jsonOut {
		emitJSON(struct {
			Structure string              `json:"structure"`
			Backend   string              `json:"backend"`
			Precond   string              `json:"precond"`
			EdgeM     float64             `json:"edge_m"`
			Tol       float64             `json:"tol"`
			Points    []*serve.SweepPoint `json:"points"`
			Trailer   *serve.SweepTrailer `json:"trailer"`
		}{structure, backend, precond, edge, tol, pts, tr})
		return
	}
	fmt.Printf("sweep     : %s, %d points over H = [%g, %g] m via %s, backend %s, edge %g m\n",
		structure, points, hmin, hmax, base, backend, edge)
	fmt.Printf("%10s %6s %20s %9s\n", "h (m)", "iters", "reused", "total ms")
	for i, p := range pts {
		if p.Error != nil {
			fmt.Printf("%10.3g %6s %20s   error: %s\n", hs[i], "-", "-", p.Error.Message)
			continue
		}
		fmt.Printf("%10.3g %6d %20s %9.2f\n", hs[i], p.Iterations, p.Reused, p.TotalMs)
	}
	fmt.Printf("\nserver    : %d points, %d failed, sweep total %.1f ms\n", tr.Points, tr.Failed, tr.TotalMs)
}

// rowsToMatrix rebuilds a dense matrix from JSON rows for printing.
func rowsToMatrix(rows [][]float64) *parbem.Matrix {
	m := parbem.NewMatrix(len(rows), len(rows))
	for i, r := range rows {
		for j, v := range r {
			m.Set(i, j, v)
		}
	}
	return m
}

// nodesUsed is the D a template backend runs on for a -workers value:
// serial ignores the flag, and 0 means one rank to mpi, every core to
// shared.
func nodesUsed(be parbem.Backend, workers int) int {
	switch {
	case be == parbem.Serial:
		return 1
	case workers > 0:
		return workers
	case be == parbem.SharedMem:
		return runtime.GOMAXPROCS(0)
	}
	return 1
}

func parseBackend(name string) (parbem.Backend, error) {
	switch name {
	case "serial":
		return parbem.Serial, nil
	case "shared":
		return parbem.SharedMem, nil
	case "mpi":
		return parbem.Distributed, nil
	}
	return 0, fmt.Errorf("unknown backend %q", name)
}

func buildStructure(kind string, m, n int) (*parbem.Structure, error) {
	switch kind {
	case "crossing":
		return parbem.NewCrossingPair().Build(), nil
	case "bus":
		return parbem.NewBus(m, n).Build(), nil
	case "interconnect":
		return parbem.NewInterconnect().Build(), nil
	case "plates":
		side, gap, thick := 20e-6, 0.5e-6, 0.2e-6
		return &parbem.Structure{
			Name: "plates",
			Conductors: []*parbem.Conductor{
				{Name: "bot", Boxes: []parbem.Box{parbem.NewBox(
					parbem.Vec3{X: 0, Y: 0, Z: 0},
					parbem.Vec3{X: side, Y: side, Z: thick})}},
				{Name: "top", Boxes: []parbem.Box{parbem.NewBox(
					parbem.Vec3{X: 0, Y: 0, Z: thick + gap},
					parbem.Vec3{X: side, Y: side, Z: 2*thick + gap})}},
			},
		}, nil
	}
	fmt.Fprintf(os.Stderr, "unknown structure %q\n", kind)
	return nil, fmt.Errorf("unknown structure %q", kind)
}
