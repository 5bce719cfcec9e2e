package parbem

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"parbem/internal/fmm"
	"parbem/internal/linalg"
	"parbem/internal/op"
	"parbem/internal/pfft"
)

// updateGolden regenerates the golden-corpus reference matrices (and
// geometry files) from the dense direct solver:
//
//	go test -run TestGoldenCorpus -update .
//
// Regeneration is a deliberate act: commit the diff only when the
// physics is supposed to have changed.
var updateGolden = flag.Bool("update", false, "regenerate testdata/golden reference matrices")

// goldenCase is one canonical geometry of the regression corpus. The
// geometry lives in testdata/golden/<name>.geo (written on -update from
// build, read back through geomio like any served payload) and the
// dense-direct reference matrix in testdata/golden/<name>.json.
type goldenCase struct {
	name  string
	build func() *Structure
	// edge is the panelization edge; relTol the per-case agreement
	// bound every backend must reproduce the stored matrix to. The
	// accelerated backends differ from dense only in far-field
	// approximation; the bounds are ~3x the worst deviation observed
	// at the conservative operator settings used here.
	edge   float64
	relTol float64
}

// platePair builds two parallel square plates (side/gap/thick in
// meters), the classic capacitor geometry, optionally offsetting the
// top plate laterally.
func platePair(side, gap, thick, offset float64) *Structure {
	return &Structure{
		Name: "plates",
		Conductors: []*Conductor{
			{Name: "bot", Boxes: []Box{NewBox(
				Vec3{X: 0, Y: 0, Z: 0},
				Vec3{X: side, Y: side, Z: thick})}},
			{Name: "top", Boxes: []Box{NewBox(
				Vec3{X: offset, Y: offset, Z: thick + gap},
				Vec3{X: side + offset, Y: side + offset, Z: 2*thick + gap})}},
		},
	}
}

// goldenCases is the corpus: bus crossings, plate pairs and members of
// the sweep families (h and width variants) the plan cache serves.
var goldenCases = []goldenCase{
	{"crossing", func() *Structure { return NewCrossingPair().Build() }, 4e-7, 5e-3},
	{"crossing_tight", func() *Structure {
		sp := NewCrossingPair()
		sp.H = 0.3e-6
		return sp.Build()
	}, 4e-7, 5e-3},
	{"crossing_wide", func() *Structure {
		sp := NewCrossingPair()
		sp.Width = 1.5 * sp.Width
		return sp.Build()
	}, 4e-7, 5e-3},
	{"plates", func() *Structure { return platePair(6e-6, 0.5e-6, 0.2e-6, 0) }, 1e-6, 5e-3},
	{"plates_offset", func() *Structure { return platePair(6e-6, 0.5e-6, 0.2e-6, 2e-6) }, 1e-6, 5e-3},
	{"bus2x2", func() *Structure { return NewBus(2, 2).Build() }, 1e-6, 5e-3},
	{"bus3x3", func() *Structure { return NewBus(3, 3).Build() }, 1e-6, 5e-3},
	{"bus2x2_hvar", func() *Structure {
		sp := NewBus(2, 2)
		sp.H = 1.5 * sp.H
		return sp.Build()
	}, 1e-6, 5e-3},
}

// goldenFile is the stored reference: the dense-direct capacitance
// matrix of the .geo geometry at the recorded edge.
type goldenFile struct {
	Name       string      `json:"name"`
	EdgeM      float64     `json:"edge_m"`
	RelTol     float64     `json:"rel_tol"`
	Conductors []string    `json:"conductors"`
	CFarads    [][]float64 `json:"c_farads"`
}

// goldenBackends is the backend matrix every case must reproduce its
// golden under. Every pipeline solve is block-Jacobi preconditioned; the
// -none rows solve the same fmm and pfft operators with no preconditioner
// at all (unpreconditioned), so the golden matrix is shown to be the
// operator's answer, not the preconditioner's. Conservative operator
// settings (fmm Theta 0.35, pfft NearRadius 8) keep the far-field error
// well inside the per-case bounds, as in TestPipelineBackendConsistency.
var goldenBackends = []struct {
	name string
	opt  PipelineOptions
	none bool // solve by unpreconditioned, not by ExtractPipeline
}{
	{"dense-direct", PipelineOptions{Backend: BackendDense, Direct: true}, false},
	{"dense-block", PipelineOptions{Backend: BackendDense, Tol: 1e-6}, false},
	{"fmm-none", PipelineOptions{Backend: BackendFMM, Tol: 1e-6,
		FMM: &FastCapOptions{Theta: 0.35}}, true},
	{"fmm-block", PipelineOptions{Backend: BackendFMM, Tol: 1e-6,
		FMM: &FastCapOptions{Theta: 0.35}}, false},
	{"pfft-none", PipelineOptions{Backend: BackendPFFT, Tol: 1e-6,
		PFFT: &PFFTOptions{NearRadius: 8}}, true},
	{"pfft-block", PipelineOptions{Backend: BackendPFFT, Tol: 1e-6,
		PFFT: &PFFTOptions{NearRadius: 8}}, false},
	{"auto", PipelineOptions{Backend: BackendAuto, Tol: 1e-6}, false},
}

// unpreconditioned solves st at edge on the fmm or pfft operator opt
// selects, built as a plan builds it, column by column by GMRES with no
// preconditioner, and reduces the charges to C. No library path solves
// unpreconditioned: this is the golden corpus's preconditioner-free
// oracle.
func unpreconditioned(st *Structure, edge float64, opt PipelineOptions) (c *Matrix, iters int, err error) {
	panels := st.Panelize(edge)
	spec := op.Spec{Panels: panels, NumConductors: st.NumConductors()}
	var a op.Operator
	if opt.Backend == BackendFMM {
		a = fmm.NewOperator(panels, op.FMMOptions(spec, opt))
	} else {
		a = pfft.NewOperator(panels, op.PFFTOptions(spec, opt))
	}
	phi := spec.RHS()
	rho := NewMatrix(len(panels), phi.Cols)
	x, b := make([]float64, len(panels)), make([]float64, len(panels))
	for j := 0; j < phi.Cols; j++ {
		for i := range b {
			b[i], x[i] = phi.At(i, j), 0
		}
		res, err := linalg.GMRESWith(nil, a, x, b, linalg.GMRESOptions{Tol: opt.Tol, Restart: 60})
		if err != nil {
			return nil, 0, err
		}
		if !res.Converged {
			return nil, 0, fmt.Errorf("column %d stalled at residual %g", j, res.Residual)
		}
		iters += res.Iterations
		for i := range x {
			rho.Set(i, j, x[i])
		}
	}
	return op.Reduce(phi, rho), iters, nil
}

func goldenPath(name, ext string) string {
	return filepath.Join("testdata", "golden", name+ext)
}

// loadGoldenStructure reads a corpus geometry exactly the way the
// service boundary would: through the geomio text format.
func loadGoldenStructure(t *testing.T, name string) *Structure {
	t.Helper()
	f, err := os.Open(goldenPath(name, ".geo"))
	if err != nil {
		t.Fatalf("golden geometry missing (run go test -run TestGoldenCorpus -update .): %v", err)
	}
	defer f.Close()
	st, err := ReadStructure(f)
	if err != nil {
		t.Fatalf("%s.geo: %v", name, err)
	}
	return st
}

// regenerateGolden writes the .geo from the case builder and the .json
// from a dense-direct solve of the re-parsed geometry (so the stored
// matrix corresponds bit-for-bit to the geometry as tests will read it,
// not to the pre-roundtrip builder output).
func regenerateGolden(t *testing.T, gc goldenCase) {
	t.Helper()
	if err := os.MkdirAll(filepath.Join("testdata", "golden"), 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(goldenPath(gc.name, ".geo"))
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteStructure(f, gc.build(), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	st := loadGoldenStructure(t, gc.name)
	res, err := ExtractPipeline(st, gc.edge, PipelineOptions{Backend: BackendDense, Direct: true})
	if err != nil {
		t.Fatalf("%s: dense reference: %v", gc.name, err)
	}
	names := make([]string, len(st.Conductors))
	rows := make([][]float64, res.C.Rows)
	for i := range names {
		names[i] = st.Conductors[i].Name
	}
	for i := range rows {
		rows[i] = res.C.Row(i)
	}
	buf, err := json.MarshalIndent(goldenFile{
		Name: gc.name, EdgeM: gc.edge, RelTol: gc.relTol,
		Conductors: names, CFarads: rows,
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath(gc.name, ".json"), append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("%s: regenerated (%d panels, %d conductors)", gc.name, res.NumPanels, len(names))
}

// TestGoldenCorpus is the golden-corpus regression harness: every
// backend, preconditioned and not, must reproduce each stored
// reference capacitance matrix to its per-case tolerance. It pins the
// whole stack — geomio parsing, panelization, operator assembly,
// preconditioning, Krylov solves, the capacitance reduction — so
// service-level refactors cannot silently drift the physics. Regenerate
// deliberately with -update.
func TestGoldenCorpus(t *testing.T) {
	cases := goldenCases
	if testing.Short() {
		cases = cases[:3]
	}
	for _, gc := range cases {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			if *updateGolden {
				regenerateGolden(t, gc)
			}
			data, err := os.ReadFile(goldenPath(gc.name, ".json"))
			if err != nil {
				t.Fatalf("golden matrix missing (run go test -run TestGoldenCorpus -update .): %v", err)
			}
			var want goldenFile
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatalf("%s.json: %v", gc.name, err)
			}
			if want.EdgeM != gc.edge {
				t.Fatalf("stored edge %g != case edge %g: regenerate with -update", want.EdgeM, gc.edge)
			}
			if want.RelTol != gc.relTol {
				t.Fatalf("stored rel_tol %g != case rel_tol %g: regenerate with -update", want.RelTol, gc.relTol)
			}
			st := loadGoldenStructure(t, gc.name)
			if len(st.Conductors) != len(want.Conductors) {
				t.Fatalf("geometry has %d conductors, golden %d", len(st.Conductors), len(want.Conductors))
			}
			ref := NewMatrix(len(want.CFarads), len(want.CFarads))
			for i, row := range want.CFarads {
				for j, v := range row {
					ref.Set(i, j, v)
				}
			}

			for _, be := range goldenBackends {
				be := be
				t.Run(be.name, func(t *testing.T) {
					var c *Matrix
					var iters int
					var err error
					if be.none {
						c, iters, err = unpreconditioned(st, gc.edge, be.opt)
					} else {
						var res *PlanResult
						if res, err = ExtractPipeline(st, gc.edge, be.opt); err == nil {
							c, iters = res.C, res.Iterations
						}
					}
					if err != nil {
						t.Fatalf("%s/%s: %v", gc.name, be.name, err)
					}
					if c.Rows != ref.Rows {
						t.Fatalf("C is %dx%d, golden %dx%d", c.Rows, c.Cols, ref.Rows, ref.Cols)
					}
					if e := CapError(c, ref); e > want.RelTol {
						t.Errorf("%s/%s deviates from golden by %.3g (tol %g)",
							gc.name, be.name, e, want.RelTol)
					}
					if !be.opt.Direct && iters == 0 {
						t.Errorf("%s/%s: no Krylov iterations reported", gc.name, be.name)
					}
					if warnings := CheckMaxwell(c, 1e-6); len(warnings) > 0 {
						t.Errorf("%s/%s Maxwell violations: %v", gc.name, be.name, warnings)
					}
				})
			}
		})
	}
}

// TestGoldenCorpusComplete keeps the corpus and the case table in sync:
// every case has both files on disk and no stray files shadow deleted
// cases.
func TestGoldenCorpusComplete(t *testing.T) {
	if *updateGolden {
		t.Skip("regenerating")
	}
	known := map[string]bool{}
	for _, gc := range goldenCases {
		known[gc.name] = true
		for _, ext := range []string{".geo", ".json"} {
			if _, err := os.Stat(goldenPath(gc.name, ext)); err != nil {
				t.Errorf("case %s missing %s: %v", gc.name, ext, err)
			}
		}
	}
	entries, err := os.ReadDir(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		base := e.Name()
		ext := filepath.Ext(base)
		if !known[base[:len(base)-len(ext)]] {
			t.Errorf("stray corpus file %s (no matching case)", e.Name())
		}
	}
}
