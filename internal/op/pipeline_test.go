package op

import (
	"context"
	"math"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"parbem/internal/costmodel"
	"parbem/internal/fmm"
	"parbem/internal/geom"
	"parbem/internal/linalg"
	"parbem/internal/pfft"
)

// busSpec panelizes the default bus crossbar into a pipeline spec.
func busSpec(tb testing.TB, m, n int, edge float64) Spec {
	tb.Helper()
	st := geom.DefaultBus(m, n).Build()
	panels := st.Panelize(edge)
	if len(panels) == 0 {
		tb.Fatal("no panels generated")
	}
	return Spec{Panels: panels, NumConductors: st.NumConductors()}
}

// newPipeline builds the operator opt.Backend names over spec and wraps
// it the way a cold variant of internal/plan does — op itself never
// builds an operator.
func newPipeline(spec Spec, opt Options) (*Pipeline, error) {
	spec = spec.withDefaults()
	var pb Prebuilt
	switch opt.Backend {
	case BackendDense:
		pb.Dense = spec.AssembleDense()
	case BackendFMM:
		pb.Operator = fmm.NewOperator(spec.Panels, FMMOptions(spec, opt))
	case BackendPFFT:
		pb.Operator = pfft.NewOperator(spec.Panels, PFFTOptions(spec, opt))
	}
	return NewPrebuilt(spec, opt, pb)
}

// extract is a cold solve of the pipeline's own right-hand sides.
func extract(pl *Pipeline) (*Result, error) {
	return pl.ExtractWarmCtx(context.Background(), nil)
}

// capDiff returns the maximum capacitance deviation relative to the
// reference row diagonal.
func capDiff(got, ref *Result) float64 {
	var worst float64
	for i := 0; i < ref.C.Rows; i++ {
		den := math.Abs(ref.C.At(i, i))
		for j := 0; j < ref.C.Cols; j++ {
			if rel := math.Abs(got.C.At(i, j)-ref.C.At(i, j)) / den; rel > worst {
				worst = rel
			}
		}
	}
	return worst
}

// TestPipelineDirectMatchesIterativeDense pins the two dense paths of
// the pipeline to each other: the direct equilibrated LDLᵀ solve and
// the preconditioned GMRES iteration over the same assembled matrix must
// produce the same capacitance matrix.
func TestPipelineDirectMatchesIterativeDense(t *testing.T) {
	spec := busSpec(t, 2, 2, 1e-6)
	direct, err := newPipeline(spec, Options{Backend: BackendDense, Direct: true})
	if err != nil {
		t.Fatal(err)
	}
	dres, err := extract(direct)
	if err != nil {
		t.Fatal(err)
	}
	if dres.Iterations != 0 {
		t.Errorf("direct path reported %d Krylov iterations", dres.Iterations)
	}
	iter, err := newPipeline(spec, Options{Backend: BackendDense, Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	ires, err := extract(iter)
	if err != nil {
		t.Fatal(err)
	}
	if ires.Iterations == 0 {
		t.Error("iterative path reported no iterations")
	}
	if d := capDiff(ires, dres); d > 1e-5 {
		t.Errorf("iterative dense deviates from direct by %g", d)
	}
}

// TestFMMSolveMatchesDense pins the multipole backend against the dense
// reference through the shared pipeline (formerly in internal/fmm).
func TestFMMSolveMatchesDense(t *testing.T) {
	spec := busSpec(t, 2, 2, 1e-6)
	direct, err := newPipeline(spec, Options{Backend: BackendDense, Direct: true})
	if err != nil {
		t.Fatal(err)
	}
	dres, err := extract(direct)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := newPipeline(spec, Options{
		Backend: BackendFMM, Tol: 1e-6,
		FMM: &fmm.Options{Theta: 0.35},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := extract(pl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != BackendFMM {
		t.Fatalf("resolved backend %v, want fmm", res.Backend)
	}
	if d := capDiff(res, dres); d > 0.02 {
		t.Errorf("fmm capacitance deviates from dense by %g", d)
	}
}

// TestPFFTSolveMatchesDense pins the precorrected-FFT backend against
// the dense reference through the shared pipeline (formerly in
// internal/pfft).
func TestPFFTSolveMatchesDense(t *testing.T) {
	spec := busSpec(t, 2, 2, 1e-6)
	direct, err := newPipeline(spec, Options{Backend: BackendDense, Direct: true})
	if err != nil {
		t.Fatal(err)
	}
	dres, err := extract(direct)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := newPipeline(spec, Options{
		Backend: BackendPFFT, Tol: 1e-6,
		PFFT: &pfft.Options{NearRadius: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := extract(pl)
	if err != nil {
		t.Fatal(err)
	}
	if d := capDiff(res, dres); d > 0.05 {
		t.Errorf("pfft capacitance deviates from dense by %g", d)
	}
}

// TestAutoBackendFollowsCostModel pins BackendAuto to the cost model's
// recommendation on both sides of the dense cutoff.
func TestAutoBackendFollowsCostModel(t *testing.T) {
	small := busSpec(t, 2, 2, 1.5e-6).withDefaults()
	if got := ResolveBackend(small, Options{}); got != BackendDense {
		t.Errorf("auto chose %v for N=%d, want dense", got, small.N())
	}

	big := busSpec(t, 8, 8, 0.75e-6).withDefaults()
	if big.N() <= costmodel.DenseMaxPanels {
		t.Fatalf("test geometry too small to leave the dense regime: N=%d", big.N())
	}
	span, med := big.stats()
	want := costmodel.Select(costmodel.Workload{
		Panels: big.N(), Span: span, MedianEdge: med, Tol: 1e-4,
	})
	got := ResolveBackend(big, Options{})
	if (want == costmodel.ChooseFMM && got != BackendFMM) ||
		(want == costmodel.ChoosePFFT && got != BackendPFFT) ||
		(want == costmodel.ChooseDense && got != BackendDense) {
		t.Errorf("auto chose %v, cost model recommends %v", got, want)
	}
	if got == BackendDense {
		t.Errorf("auto stayed dense above the cutoff (N=%d)", big.N())
	}
}

// TestPooledWorkspaceDirtyBitwise: a solve on the search-space buffers a
// larger solve left in the pool gives the bits of a solve on fresh ones —
// Reset empties the space, and the solve writes every buffer before it
// reads it. The larger solve's workspace is moved into the smaller one's
// size class, as a solve of a size between the two would leave it; one P
// and no collection make a Put the next Get's.
func TestPooledWorkspaceDirtyBitwise(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	small, err := newPipeline(busSpec(t, 2, 2, 1e-6), Options{Backend: BackendDense})
	if err != nil {
		t.Fatal(err)
	}
	large, err := newPipeline(crossingSpec(t, 0.4e-6), Options{Backend: BackendDense})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC() // two collections empty the pools, their victim caches too
	runtime.GC()
	want, err := extract(small) // on a new workspace
	if err != nil {
		t.Fatal(err)
	}
	if _, err := extract(large); err != nil {
		t.Fatal(err)
	}
	ws := workspaces.get(large.n)
	if ws == nil && !raceBuild {
		t.Fatal("the larger solve left no workspace")
	}
	for workspaces.get(small.n) != nil { // the first small solve's
	}
	workspaces.put(small.n, ws)
	got, err := extract(small)
	if err != nil {
		t.Fatal(err)
	}
	if again := workspaces.get(small.n); again != ws && !raceBuild {
		t.Fatal("the second solve did not run on the workspace the larger one left")
	}
	t.Logf("N = %d after N = %d: %d iterations", small.n, large.n, got.Iterations)
	if got.Iterations != want.Iterations {
		t.Errorf("%d iterations on the pooled workspace, %d on a new one", got.Iterations, want.Iterations)
	}
	for _, c := range []struct{ got, want []float64 }{{got.C.Data, want.C.Data}, {got.Rho.Data, want.Rho.Data}} {
		for k, v := range c.want {
			if math.Float64bits(c.got[k]) != math.Float64bits(v) {
				t.Fatalf("entry %d = %v on the pooled workspace, %v on a new one", k, c.got[k], v)
			}
		}
	}
}

// TestSmallSolvesFreeLargeWorkspace: the search space a solve at
// MaxPanels leaves in the pool (what a large fmm or pfft request leaves)
// is unreachable two collections later, however many small dense solves
// run in between: they take no workspace of its size class. One P makes
// a small solve's Get the one that would find it in a shared pool.
func TestSmallSolvesFreeLargeWorkspace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	small, err := newPipeline(busSpec(t, 2, 2, 1e-6), Options{Backend: BackendDense})
	if err != nil {
		t.Fatal(err)
	}
	const big = 200_000
	ws := new(linalg.GMRESWorkspace)
	ws.Reset(big, restart)
	freed := make(chan struct{})
	runtime.SetFinalizer(ws, func(*linalg.GMRESWorkspace) { close(freed) })
	workspaces.put(big, ws)
	ws = nil
	for range 3 {
		if _, err := extract(small); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
	}
	select {
	case <-freed:
	case <-time.After(10 * time.Second):
		t.Fatal("small solves keep the N = 200 000 workspace reachable")
	}
}
