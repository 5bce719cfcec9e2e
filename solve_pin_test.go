package parbem

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"parbem/internal/assembly"
	"parbem/internal/kernel"
	"parbem/internal/linalg"
	"parbem/internal/op"
)

// TestDirectSolvePinnedBus16 pins what the benchmark's tmpl_bus16 gate
// checks, as work rather than wall clock: the 16x16 bus against the
// benchmark's own reference, an order of magnitude inside its limit of
// 1e-8 (κ ≈ 5e3 and the class table's lattice and isometries leave
// ~1e-11); the work of the fill, as counts that repeat exactly; what the
// factorization found on the way; and the allocation of the solve step and
// of the whole extraction. The fill writes the packed lower triangle of P
// (N(N+1)/2 doubles) and the direct solve factors it in place, so the solve
// step allocates no N×N at all (the panel workspace and the charges are a
// tenth of one), and an extraction holds one half-size system matrix: a
// working copy of it, or a full N×N, fails here.
func TestDirectSolvePinnedBus16(t *testing.T) {
	raw, err := os.ReadFile("bench/ref/tmpl_bus16.json")
	if err != nil {
		t.Fatal(err)
	}
	var pin struct {
		Cases map[string][][]float64 `json:"cases"`
	}
	if err := json.Unmarshal(raw, &pin); err != nil {
		t.Fatal(err)
	}
	rows := pin.Cases["bus"]
	if len(rows) == 0 {
		t.Fatal(`no "bus" case in the benchmark's reference`)
	}
	ref := linalg.NewDense(len(rows), len(rows))
	for i, r := range rows {
		copy(ref.Row(i), r)
	}

	res, err := Extract(NewBus(16, 16).Build(), Options{Backend: SharedMem})
	if err != nil {
		t.Fatal(err)
	}
	e := CapError(res.C, ref)
	t.Logf("16x16 bus: N = %d, CapError vs bench/ref %.3g, inertia %+v", res.N, e, res.Inertia)
	if !(e <= 1e-10) {
		t.Errorf("CapError vs the benchmark's reference = %g, limit 1e-10", e)
	}
	if v := CheckMaxwell(res.C, 0); len(v) > 0 {
		t.Errorf("not of Maxwell form: %v", v)
	}
	// 54 598 classes and a 2.75 MB table under translations alone.
	if f := res.Fill; f.PairsFar != 548016 || f.PairsNear != 945840 || f.ClassesIntegrated > 21000 || f.TableBytes > 1.2e6 {
		t.Errorf("fill: %d far and %d near pairs in %d classes, table %d bytes; want 548016 and 945840 in at most 21000, 1.2 MB",
			f.PairsFar, f.PairsNear, f.ClassesIntegrated, f.TableBytes)
	}
	if res.Inertia != (linalg.Inertia{Negative: 1, Blocks2x2: 1}) {
		t.Errorf("inertia %+v, want one negative pivot in one 2x2 block", res.Inertia)
	}

	// The solve step again, as solver.ExtractSet runs it, between two
	// readings of the allocator, on the matrix rebuilt by the serial fill
	// (bitwise the shared-memory one).
	moments := res.Set.Moments()
	phi := linalg.NewDense(res.N, res.Set.NumConductors)
	for i, f := range res.Set.Functions {
		phi.Set(i, f.Conductor, moments[i])
	}
	P := assembly.FillSerial(res.Set, assembly.NewIntegrator())
	linalg.Scal(1/(kernel.FourPi*kernel.Eps0), P.Data)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pl, err := op.NewFromSym(P, op.Options{Direct: true})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := pl.ExtractRHS(phi)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if d := CapError(sol.C, res.C); d != 0 {
		t.Errorf("the recomposed solve step differs from Extract's by %g", d)
	}
	if want := 8 * res.N * (res.N + 1) / 2; res.MatrixBytes != want || want != 1985280 {
		t.Errorf("MatrixBytes = %d, want the packed triangle, 8·N(N+1)/2 = %d (1 985 280 at N = 704)", res.MatrixBytes, want)
	}
	matrixBytes := 8 * float64(res.N) * float64(res.N)
	alloc := float64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("solve step allocated %.2f MB = %.3f x 8N²", alloc/1e6, alloc/matrixBytes)
	if alloc > 0.25*matrixBytes {
		t.Errorf("solve step allocated %.0f bytes, over 0.25 x 8N² = %.0f: a working copy of the matrix", alloc, 0.25*matrixBytes)
	}

	// The whole extraction at one worker: the fill's matrix and its
	// class table, the basis, and the solve step above.
	runtime.ReadMemStats(&before)
	one, err := Extract(NewBus(16, 16).Build(), Options{Backend: SharedMem, Workers: 1})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if d := CapError(one.C, res.C); d != 0 {
		t.Errorf("one worker's C differs from the default's by %g", d)
	}
	alloc = float64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("Extract at one worker allocated %.2f MB = %.3f x 8N²", alloc/1e6, alloc/matrixBytes)
	if alloc > 2.0*matrixBytes {
		t.Errorf("Extract allocated %.0f bytes, over 2.0 x 8N² = %.0f: a full N×N", alloc, 2.0*matrixBytes)
	}

	// Buses up to 14x14 are still positive definite.
	for _, m := range []int{4, 8} {
		small, err := Extract(NewBus(m, m).Build(), Options{Backend: SharedMem})
		if err != nil {
			t.Fatal(err)
		}
		if small.Inertia != (linalg.Inertia{}) {
			t.Errorf("%dx%d bus: inertia %+v, want a positive definite system matrix", m, m, small.Inertia)
		}
	}
}

// TestTable2MatrixBytes is the paper's Table 2 memory claim as a count,
// independent of the host: the interconnect's instantiable system matrix
// is the packed lower triangle of its N = 138 basis functions, 8·N(N+1)/2
// = 76 728 bytes (the paper's is 2.5 MB against FASTCAP's 24 MB;
// cmd/benchtables -table 2 prints the ratio against its panel count).
func TestTable2MatrixBytes(t *testing.T) {
	res, err := Extract(NewInterconnect().Build(), Options{Backend: Serial})
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 138 || res.MatrixBytes != 76728 {
		t.Errorf("interconnect: N = %d, MatrixBytes = %d; want N = 138 and 8·N(N+1)/2 = 76 728", res.N, res.MatrixBytes)
	}
}
