package parbem

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"parbem/internal/assembly"
	"parbem/internal/fmm"
	"parbem/internal/mpi"
	"parbem/internal/op"
	"parbem/internal/par"
	"parbem/internal/pcbem"
	"parbem/internal/pfft"
	"parbem/internal/serve"
)

func TestPublicQuickstart(t *testing.T) {
	st := NewCrossingPair().Build()
	res, err := Extract(st, Options{Backend: SharedMem})
	if err != nil {
		t.Fatal(err)
	}
	if res.C.Rows != 2 {
		t.Fatalf("C rows = %d", res.C.Rows)
	}
	if res.C.At(0, 1) >= 0 {
		t.Error("coupling must be negative")
	}
}

func TestInstantiableVsReferenceAccuracy(t *testing.T) {
	// The headline accuracy claim: the instantiable-basis solution stays
	// within a few percent of a finely discretized piecewise-constant
	// reference (paper reports 2.8% on the industry example).
	st := NewCrossingPair().Build()
	fast, err := Extract(st, Options{Backend: SharedMem})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ExtractReference(st, 0.35e-6)
	if err != nil {
		t.Fatal(err)
	}
	errRel := CapError(fast.C, ref.C)
	t.Logf("instantiable vs reference: %.2f%% (N=%d vs %d panels)",
		100*errRel, fast.N, ref.NumPanels)
	if errRel > 0.10 {
		t.Errorf("accuracy %.1f%% worse than 10%%", 100*errRel)
	}
	// Compactness claim: far fewer unknowns than the panel reference.
	if fast.N >= ref.NumPanels/4 {
		t.Errorf("basis not compact: N=%d vs %d panels", fast.N, ref.NumPanels)
	}
}

func TestFastCapLikeBaseline(t *testing.T) {
	st := NewCrossingPair().Build()
	ref, err := ExtractReference(st, 0.5e-6)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := ExtractFastCapLike(st, 0.5e-6, FastCapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if e := CapError(fc.C, ref.C); e > 0.03 {
		t.Errorf("FastCap-like error %.2f%% vs dense on same mesh", 100*e)
	}
	if fc.Iterations == 0 {
		t.Error("expected Krylov iterations")
	}
}

func TestPFFTBaseline(t *testing.T) {
	st := NewCrossingPair().Build()
	ref, err := ExtractReference(st, 0.5e-6)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := ExtractPFFT(st, 0.5e-6, PFFTOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if e := CapError(pf.C, ref.C); e > 0.05 {
		t.Errorf("pFFT error %.2f%% vs dense on same mesh", 100*e)
	}
}

func TestCapError(t *testing.T) {
	a := &Matrix{Rows: 2, Cols: 2, Data: []float64{10, -2, -2, 10}}
	b := &Matrix{Rows: 2, Cols: 2, Data: []float64{11, -2, -2, 10}}
	if e := CapError(b, a); math.Abs(e-0.1) > 1e-12 {
		t.Errorf("CapError = %g want 0.1", e)
	}
}

func TestSetupDominatesTotal(t *testing.T) {
	// The paper's core premise: >95% of runtime in system setup. On a
	// small example we assert a softer 80%.
	st := NewBus(4, 4).Build()
	res, err := Extract(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(res.Timing.Setup) / float64(res.Timing.Total)
	t.Logf("setup fraction: %.1f%% (N=%d, M=%d)", 100*frac, res.N, res.M)
	if frac < 0.80 {
		t.Errorf("setup fraction %.1f%% below 80%%", 100*frac)
	}
}

// TestNonFiniteGeometryRejected: a crossing pair with one NaN coordinate
// is refused by validation, naming the box, on the template path and the
// panel path alike — before any fill, factorization or GMRES sees it.
func TestNonFiniteGeometryRejected(t *testing.T) {
	st := NewCrossingPair().Build()
	st.Conductors[0].Boxes[0].Max.X = math.NaN()
	if _, err := Extract(st, Options{}); err == nil || !strings.Contains(err.Error(), "non-finite coordinate") {
		t.Errorf("Extract: %v, want a non-finite coordinate error", err)
	}
	if _, err := ExtractPipeline(st, 0.5e-6, PipelineOptions{Backend: BackendDense}); err == nil || !strings.Contains(err.Error(), "non-finite coordinate") {
		t.Errorf("ExtractPipeline: %v, want a non-finite coordinate error", err)
	}
}

// TestOptionSurface pins the settable values on the paper's path, from
// Extract to the pair integrals, and on the panel path, from a Plan to
// the pipeline's solve. PR 19 deleted 23 that no workload, command
// default or example set, each guarding a fork, and PR 21 two of a plan's
// six. A new one has to edit this list, and its change should say which
// two existing callers need different values of it; with one value in
// use it is a constant. PR 22's Pairs is a resource handle, like Exec and
// Artifacts beside it: the batch engine passes its shared class table and
// everything else leaves it nil; it travels plan -> op.Spec -> the fmm and
// pfft operators, whose option structs are listed from here on. The 17
// fields that went later under the same rule are the permittivity of
// Options, op.Spec, pcbem.Problem and the fmm and pfft operators, the
// simulated interconnect (Options.Network and mpi.Network's latency and
// bandwidth), the basis builder's six calibration factors, the Krylov
// ring (PipelineOptions.Restart), the fmm leaf size and the pfft grid
// pitch. Six more went after them: serve.Options.Engine,
// serve.RouterOptions.Client, serve.Limits' caps on conductors, boxes and
// sweep points, and pcbem.Problem.Par.
func TestOptionSurface(t *testing.T) {
	for _, c := range []struct {
		typ  reflect.Type
		want []string
	}{
		{reflect.TypeOf(Options{}), []string{"Backend", "Workers", "Kernel"}},
		{reflect.TypeOf(EngineOptions{}), []string{"Backend", "Workers", "PlanWorkers", "CacheEntries", "Artifacts"}},
		{reflect.TypeOf(PlanOptions{}), []string{"MaxEdge", "Pipeline", "Exec", "Artifacts", "Pairs"}},
		{reflect.TypeOf(PipelineOptions{}), []string{"Backend", "Precond", "Tol", "Direct", "Precision", "FMM", "PFFT"}},
		{reflect.TypeOf(par.Options{}), []string{"Workers", "Pool"}},
		{reflect.TypeOf(assembly.Integrator{}), []string{"Cfg", "Pairs"}},
		{reflect.TypeOf(op.Spec{}), []string{"Panels", "NumConductors", "Cfg", "Exec", "Pairs"}},
		{reflect.TypeOf(fmm.Options{}), []string{"Theta", "NearFactor", "Workers", "Cfg", "Pairs", "Pool", "Exec"}},
		{reflect.TypeOf(pfft.Options{}), []string{"MaxNodes", "NearRadius", "Workers", "Cfg", "Pairs", "Pool", "Exec"}},
		// The template library's calibration is constants of basis and
		// the basis has one construction; the distributed fill's network
		// is a rank count.
		{reflect.TypeOf(BuilderOptions{}), nil},
		{reflect.TypeOf(mpi.Network{}), nil},
		// The Section 4.1 distances are kernel constants, not settings.
		{reflect.TypeOf(KernelConfig{}), []string{"QuadOrder", "DisableApprox"}},
		// A variant's fmm or pfft near field is built, never copied from
		// the previous operator: what is left to offer is a stored near
		// field and, on pfft, the previous kernel transform.
		{reflect.TypeOf(fmm.Reuse{}), []string{"Vals"}},
		{reflect.TypeOf(pfft.Reuse{}), []string{"Prev", "Artifact"}},
		// The service: the server builds its own engine, capxd's flags set
		// the two request limits left, and the router always forwards on
		// a plain http.Client. A panel problem's executor is its Spec's.
		{reflect.TypeOf(serve.Options{}), []string{"Workers", "WorkerBudget", "QueueDepth", "SweepQueueDepth", "Runners",
			"TenantRate", "TenantBurst", "CacheEntries", "Limits", "JobHistory", "DataDir",
			"ArtifactDir", "ArtifactMaxBytes", "Logf"}},
		{reflect.TypeOf(serve.Limits{}), []string{"MaxBodyBytes", "MaxPanels"}},
		{reflect.TypeOf(serve.RouterOptions{}), []string{"Replicas", "Limits", "Retry", "Logf"}},
		{reflect.TypeOf(pcbem.Problem{}), []string{"Panels", "NumConductors", "Cfg"}},
	} {
		var got []string
		for _, f := range reflect.VisibleFields(c.typ) {
			if f.IsExported() {
				got = append(got, f.Name)
			}
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%v has exported fields %v, want %v", c.typ, got, c.want)
		}
	}
}
