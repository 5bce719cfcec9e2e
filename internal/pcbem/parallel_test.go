package pcbem

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"parbem/internal/assembly"
	"parbem/internal/geom"
	"parbem/internal/geomio"
	"parbem/internal/linalg"
	"parbem/internal/op"
	"parbem/internal/sched"
)

// denseCase is a panelization the dense-fill tests run on.
type denseCase struct {
	name string
	st   *geom.Structure
	edge float64
}

func plates(gap float64) *geom.Structure {
	const side, thick = 6e-6, 0.2e-6
	return &geom.Structure{Name: "plates", Conductors: []*geom.Conductor{
		{Name: "bot", Boxes: []geom.Box{geom.NewBox(geom.Vec3{}, geom.Vec3{X: side, Y: side, Z: thick})}},
		{Name: "top", Boxes: []geom.Box{geom.NewBox(geom.Vec3{Z: thick + gap}, geom.Vec3{X: side, Y: side, Z: 2*thick + gap})}},
	}}
}

// denseCases are the benchmark's four served families at their base edge
// and every geometry of the golden corpus at its recorded edge, read
// through geomio as the service reads them.
func denseCases(t *testing.T) []denseCase {
	cases := []denseCase{
		{"crossing", geom.DefaultCrossingPair().Build(), 0.4e-6},
		{"bus2x2", geom.DefaultBus(2, 2).Build(), 1e-6},
		{"bus3x3", geom.DefaultBus(3, 3).Build(), 1e-6},
		{"plates", plates(0.5e-6), 1e-6},
	}
	geos, err := filepath.Glob(filepath.Join("..", "..", "testdata", "golden", "*.geo"))
	if err != nil || len(geos) == 0 {
		t.Fatalf("golden geometries: %v (%d found)", err, len(geos))
	}
	for _, g := range geos {
		name := strings.TrimSuffix(filepath.Base(g), ".geo")
		var ref struct {
			EdgeM float64 `json:"edge_m"`
		}
		data, err := os.ReadFile(strings.TrimSuffix(g, ".geo") + ".json")
		if err != nil || json.Unmarshal(data, &ref) != nil || ref.EdgeM <= 0 {
			t.Fatalf("%s: no edge in its golden file (%v)", name, err)
		}
		f, err := os.Open(g)
		if err != nil {
			t.Fatal(err)
		}
		st, err := geomio.Read(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cases = append(cases, denseCase{"golden/" + name, st, ref.EdgeM})
	}
	return cases
}

// TestAssembleDenseMatchesEntries pins the block fill to the entry
// definition: on every case, at every executor, cold and as a rigid-motion
// variant (prev and class given, prev filled in place), every packed entry
// (j, i), i <= j, is bitwise Entry(i, j) — or prev's where the two panels
// share a class — and the near and far pair counts are what asking
// PairInto pair by pair counts.
func TestAssembleDenseMatchesEntries(t *testing.T) {
	pool := sched.NewPool(4)
	defer pool.Close()
	for _, c := range denseCases(t) {
		t.Run(c.name, func(t *testing.T) {
			p, err := NewProblem(c.st, c.edge)
			if err != nil {
				t.Fatal(err)
			}
			ref := p.Spec()
			n := ref.N()
			// The variant: conductor 0's panels moved with each other, and
			// so did every odd conductor's; the rest, none.
			class := make([]int32, n)
			for i, pan := range p.Panels {
				class[i] = -1
				if pan.Conductor == 0 || pan.Conductor%2 == 1 {
					class[i] = int32(pan.Conductor)
				}
			}
			// A stand-in for the previous variant's matrix.
			prev := linalg.NewSym(n)
			for i := 0; i < n; i++ {
				for j := i; j < n; j++ {
					prev.Row(j)[i] = -float64(i*n + j + 1)
				}
			}
			want := make([]float64, n*n)
			var cold, variant assembly.FillStats
			var copied int64 // entries a variant keeps
			per := assembly.InternPanels(p.Cfg, nil, p.Panels)
			for i := 0; i < n; i++ {
				for j := i; j < n; j++ {
					want[i*n+j] = ref.Entry(i, j)
					before := cold
					per.PairInto(i, j, &cold)
					if class[i] >= 0 && class[i] == class[j] {
						copied++
						continue
					}
					variant.PairsNear += cold.PairsNear - before.PairsNear
					variant.PairsFar += cold.PairsFar - before.PairsFar
				}
			}
			for _, ex := range []sched.Executor{nil, sched.Local(1), sched.Local(7), pool} {
				for _, moved := range []bool{false, true} {
					spec := p.Spec()
					spec.Exec = ex
					var m *linalg.Sym
					var reused int64
					var fill assembly.FillStats
					wantFill, wantReused := cold, int64(0)
					if moved {
						in := &linalg.Sym{N: n, Data: slices.Clone(prev.Data)}
						if m, reused, fill = spec.AssembleDenseReuse(in, class); m != in {
							t.Fatalf("executor %T: the variant was not filled into prev", ex)
						}
						wantFill, wantReused = variant, copied
					} else {
						m, reused, fill = spec.AssembleDenseReuse(nil, nil)
					}
					for i := 0; i < n; i++ {
						for j := i; j < n; j++ {
							w := want[i*n+j]
							if moved && class[i] >= 0 && class[i] == class[j] {
								w = prev.At(i, j)
							}
							if got := m.At(i, j); math.Float64bits(got) != math.Float64bits(w) {
								t.Fatalf("executor %T, moved %v: P[%d][%d] = %v, want %v", ex, moved, i, j, got, w)
							}
						}
					}
					if reused != wantReused || fill.PairsNear != wantFill.PairsNear || fill.PairsFar != wantFill.PairsFar {
						t.Errorf("executor %T, moved %v: %d copied, %d near, %d far; pair by pair %d, %d, %d",
							ex, moved, reused, fill.PairsNear, fill.PairsFar, wantReused, wantFill.PairsNear, wantFill.PairsFar)
					}
				}
			}
		})
	}
}

// TestDenseLookupsPerAssembly pins, by count, what the block fill is for:
// the table lookups of one cold assembly — near pairs less those their
// block's memo served — on the served families. The counts depend on the
// panels alone (the fill is cut into tasks without regard to the
// executor), so they repeat at any width.
func TestDenseLookupsPerAssembly(t *testing.T) {
	for _, c := range []struct {
		dc            denseCase
		near, lookups int64
	}{
		{denseCase{"crossing", geom.DefaultCrossingPair().Build(), 0.4e-6}, 121210, 28408},
		{denseCase{"bus2x2", geom.DefaultBus(2, 2).Build(), 1e-6}, 7260, 1574},
		{denseCase{"bus3x3", geom.DefaultBus(3, 3).Build(), 1e-6}, 26106, 4933},
		{denseCase{"plates", plates(0.5e-6), 1e-6}, 18528, 1024},
	} {
		p, err := NewProblem(c.dc.st, c.dc.edge)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 2} {
			spec := p.Spec()
			spec.Exec = sched.Local(w)
			_, _, fill := spec.AssembleDenseReuse(nil, nil)
			looked := fill.PairsNear - fill.PairMemo
			t.Logf("%s, %d workers: %d near pairs, %d looked up (%.1f%%), %d classes",
				c.dc.name, w, fill.PairsNear, looked, 100*float64(looked)/float64(fill.PairsNear), fill.ClassesIntegrated)
			if fill.PairsNear != c.near || looked != c.lookups {
				t.Errorf("%s, %d workers: %d lookups for %d near pairs; want %d for %d", c.dc.name, w, looked, fill.PairsNear, c.lookups, c.near)
			}
		}
	}
}

// TestSolveIterativeConcurrentColumnsDeterministic: the multi-RHS solve
// returns the same capacitance matrix, to the bit, and the same iteration
// total on every run and at 1, 2 and 4 workers. The columns are solved in
// index order in one search space, so the only parallelism is the
// operator's own — and the packed dense matvec, which fans out here, cuts
// its rows into chunks by N alone and adds them in chunk order whoever
// runs them. (The columns used to be concurrent and independent; the name
// is kept for the test's history.)
func TestSolveIterativeConcurrentColumnsDeterministic(t *testing.T) {
	p, err := NewProblem(geom.DefaultBus(3, 3).Build(), 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	base := p.Spec()
	m := base.AssembleDense()
	fan := mapWidth{sched.Local(2), new(int)}
	op.NewDenseOperator(m, base.Panels, fan).Apply(make([]float64, m.N), make([]float64, m.N))
	if *fan.tasks < 2 {
		t.Fatalf("N=%d: the matvec would not fan out", m.N)
	}
	var first *op.Result
	for _, workers := range []int{1, 1, 2, 4} {
		spec := p.Spec()
		spec.Exec = sched.Local(workers)
		res := solveIterative(t, spec, plainOp{op.NewDenseOperator(m, spec.Panels, spec.Exec)}, 1e-8)
		if first == nil {
			first = res
			continue
		}
		if res.Iterations != first.Iterations {
			t.Fatalf("%d workers: %d iterations, first run %d", workers, res.Iterations, first.Iterations)
		}
		for i := 0; i < res.C.Rows; i++ {
			for j := 0; j < res.C.Cols; j++ {
				if res.C.At(i, j) != first.C.At(i, j) {
					t.Fatalf("%d workers: C[%d][%d] differs from the first run's", workers, i, j)
				}
			}
		}
	}
}

// mapWidth records the task count of the last Map its executor ran.
type mapWidth struct {
	sched.Executor
	tasks *int
}

func (w mapWidth) Map(n int, fn func(task int)) {
	*w.tasks = n
	w.Executor.Map(n, fn)
}

// BenchmarkAssembleDense is one cold dense assembly per iteration: each
// Spec brings a class table of its own, so every class of the 4x4 bus is
// integrated once, and every other near pair is a lookup unless its
// block's memo serves it (lookups/op counts what reached the table).
func BenchmarkAssembleDense(b *testing.B)       { benchAssembleDense(b, nil) }
func BenchmarkAssembleDenseSerial(b *testing.B) { benchAssembleDense(b, sched.Local(1)) }

func benchAssembleDense(b *testing.B, ex sched.Executor) {
	p, err := NewProblem(geom.DefaultBus(4, 4).Build(), 1e-6)
	if err != nil {
		b.Fatal(err)
	}
	spec := p.Spec()
	spec.Exec = ex
	var fill assembly.FillStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, fill = spec.AssembleDenseReuse(nil, nil)
	}
	b.ReportMetric(float64(fill.PairsNear-fill.PairMemo), "lookups/op")
	b.ReportMetric(float64(fill.ClassesIntegrated), "classes/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(fill.PairsFar+fill.PairsNear), "ns/pair")
}

// BenchmarkSolveIterativeMultiRHS measures the per-conductor Krylov solves
// over the dense operator, one search space for all of them.
func BenchmarkSolveIterativeMultiRHS(b *testing.B) {
	p, err := NewProblem(geom.DefaultBus(4, 4).Build(), 1.5e-6)
	if err != nil {
		b.Fatal(err)
	}
	spec := p.Spec()
	a := denseOp(spec)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solveIterative(b, spec, a, 1e-6)
	}
}
