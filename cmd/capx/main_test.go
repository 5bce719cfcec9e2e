package main

// The command is tested as a real subprocess: TestMain re-execs the test
// binary as capx when CAPX_TEST_CHILD is set, so main runs unchanged, with
// its own flags, exit status and stdout.

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"testing"
)

func TestMain(m *testing.M) {
	if os.Getenv("CAPX_TEST_CHILD") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// capx runs the command with args and decodes its JSON output into v.
func capx(t *testing.T, v any, args ...string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CAPX_TEST_CHILD=1")
	out, err := cmd.Output()
	if err != nil {
		var stderr []byte
		if ee, ok := err.(*exec.ExitError); ok {
			stderr = ee.Stderr
		}
		t.Fatalf("capx %v: %v\n%s", args, err, stderr)
	}
	if err := json.Unmarshal(out, v); err != nil {
		t.Fatalf("capx %v: %v in\n%s", args, err, out)
	}
}

// checkSymmetric fails unless c is a square matrix equal to its
// transpose bit for bit: every direct solve mirrors one triangle.
func checkSymmetric(t *testing.T, c [][]float64) {
	t.Helper()
	if len(c) < 2 {
		t.Fatalf("c_farads has %d rows", len(c))
	}
	for i := range c {
		if len(c[i]) != len(c) {
			t.Fatalf("c_farads row %d has %d entries, want %d", i, len(c[i]), len(c))
		}
		for j := 0; j < i; j++ {
			if math.Float64bits(c[i][j]) != math.Float64bits(c[j][i]) {
				t.Errorf("C[%d][%d] = %v, C[%d][%d] = %v", i, j, c[i][j], j, i, c[j][i])
			}
		}
	}
}

// TestCapxTemplateJSON: the default run, the instantiable-basis solver on
// the crossing pair, reports an exactly symmetric C and the work of its
// fill (the two wires are near each other, so it has no far pairs).
func TestCapxTemplateJSON(t *testing.T) {
	var out struct {
		Backend string      `json:"backend"`
		CFarads [][]float64 `json:"c_farads"`
		Fill    struct {
			PairsNear         int64 `json:"pairs_near"`
			ClassesIntegrated int64 `json:"classes_integrated"`
		} `json:"fill"`
	}
	capx(t, &out, "-structure", "crossing", "-json")
	if out.Backend != "serial" {
		t.Errorf("backend %q, want serial", out.Backend)
	}
	checkSymmetric(t, out.CFarads)
	if f := out.Fill; f.PairsNear <= 0 || f.ClassesIntegrated <= 0 {
		t.Errorf("fill counts %+v, want near pairs and classes above 0", f)
	}
}

// TestCapxPipelineJSON: -backend dense prints the service's extraction
// record of a dense direct solve.
func TestCapxPipelineJSON(t *testing.T) {
	var out struct {
		Backend    string      `json:"backend"`
		NumPanels  int         `json:"num_panels"`
		Iterations int         `json:"iterations"`
		CFarads    [][]float64 `json:"c_farads"`
	}
	capx(t, &out, "-structure", "crossing", "-backend", "dense", "-edge", "1e-6", "-json")
	if out.Backend != "dense" || out.NumPanels <= 0 || out.Iterations != 0 {
		t.Errorf("backend %q on %d panels after %d iterations, want a dense direct solve", out.Backend, out.NumPanels, out.Iterations)
	}
	checkSymmetric(t, out.CFarads)
}

// TestCapxSweepJSON: -sweep extracts its points through one plan, so every
// point after the first reuses the one before it.
func TestCapxSweepJSON(t *testing.T) {
	var out struct {
		Points []struct {
			Reused  string      `json:"reused"`
			CFarads [][]float64 `json:"c_farads"`
		} `json:"points"`
	}
	capx(t, &out, "-structure", "crossing", "-sweep", "3", "-backend", "dense", "-edge", "1e-6", "-json")
	if len(out.Points) != 3 {
		t.Fatalf("%d points, want 3", len(out.Points))
	}
	for i, p := range out.Points {
		checkSymmetric(t, p.CFarads)
		if i > 0 && p.Reused == "none" {
			t.Errorf("warm point %d reused nothing", i)
		}
	}
}
