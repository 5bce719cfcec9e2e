package op

import (
	"fmt"
	"testing"

	"parbem/internal/assembly"
	"parbem/internal/basis"
	"parbem/internal/fmm"
	"parbem/internal/geom"
	"parbem/internal/kernel"
	"parbem/internal/linalg"
)

// BenchmarkPipelineSolve compares the unified pipeline's multi-RHS solve
// over the fmm operator with and without the near-field block-Jacobi
// preconditioner (equal tolerance). The iters/op metric is the total
// Krylov count across all conductor columns, applies/op every operator
// application behind it (iterations and residual checks; no seeds here).
func BenchmarkPipelineSolve(b *testing.B) {
	spec := busSpec(b, 4, 4, 1e-6).withDefaults()
	a := fmm.NewOperator(spec.Panels, fmm.Options{Cfg: spec.Cfg})
	phi := spec.RHS()
	for _, bc := range []struct {
		name string
		kind PrecondKind
	}{
		{"plain", PrecondNone},
		{"jacobi", PrecondJacobi},
		{"block-jacobi", PrecondBlockJacobi},
	} {
		b.Run(bc.name, func(b *testing.B) {
			pl, err := NewWithOperator(spec, a, Options{Precond: bc.kind, Tol: 1e-4})
			if err != nil {
				b.Fatal(err)
			}
			var iters, applies int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := pl.ExtractRHS(phi)
				if err != nil {
					b.Fatal(err)
				}
				iters, applies = res.Iterations, res.Applies
			}
			b.ReportMetric(float64(iters), "iters/op")
			b.ReportMetric(float64(applies), "applies/op")
		})
	}
}

// BenchmarkPipelineDirect measures the direct dense path (assembly
// excluded; factorization + solves + reduction).
func BenchmarkPipelineDirect(b *testing.B) {
	spec := busSpec(b, 3, 3, 1.5e-6).withDefaults()
	pb := Prebuilt{Dense: spec.AssembleDense()}
	opt := Options{Backend: BackendDense, Direct: true}
	phi := spec.RHS()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl, err := NewPrebuilt(spec, opt, pb)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pl.ExtractRHS(phi); err != nil {
			b.Fatal(err)
		}
	}
}

// templateSystem fills the instantiable-basis system of an m x n bus
// the way solver.ExtractSet does: the matrix the direct solve is for,
// and its moment-weighted indicator right-hand sides.
func templateSystem(m, n int) (p *linalg.Sym, phi *linalg.Dense) {
	set := basis.Build(geom.DefaultBus(m, n).Build(), basis.BuilderOptions{})
	p = assembly.FillSerial(set, assembly.NewIntegrator())
	linalg.Scal(1/(kernel.FourPi*kernel.Eps0), p.Data)
	moments := set.Moments()
	phi = linalg.NewDense(set.N(), set.NumConductors)
	for i, f := range set.Functions {
		phi.Set(i, f.Conductor, moments[i])
	}
	return p, phi
}

// BenchmarkSolveSPD measures the direct solve on real template
// matrices: the 8x8 bus (N = 224, positive definite, 16 right-hand
// sides) and the 16x16 bus (N = 704, indefinite, 32), as ExtractRHS runs
// it (rhs: charges and C, two sweeps) and as the template solver does
// (c: DirectCapacitance, C = Yᵀ D⁻¹ Y from the forward sweep alone).
// Both consume their matrix, so each iteration refills a working copy
// first, as BenchmarkFactorSym does. ns/madd counts the N³/6 of the
// factorization and the N²·n_c/2 of each sweep.
func BenchmarkSolveSPD(b *testing.B) {
	for _, m := range []int{8, 16} {
		p, phi := templateSystem(m, m)
		cond, moment := make([]int, p.N), make([]float64, p.N)
		for i := range cond {
			for j, v := range phi.Row(i) {
				if v != 0 {
					cond[i], moment[i] = j, v
				}
			}
		}
		work := linalg.NewSym(p.N)
		for _, c := range []struct {
			name   string
			sweeps float64
			solve  func() error
		}{
			{"rhs", 2, func() error {
				pl, err := NewFromSym(work, Options{Direct: true})
				if err == nil {
					_, err = pl.ExtractRHS(phi)
				}
				return err
			}},
			{"c", 1, func() error {
				_, err := DirectCapacitance(work, cond, moment, phi.Cols)
				return err
			}},
		} {
			b.Run(fmt.Sprintf("bus%d/%s", m, c.name), func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					copy(work.Data, p.Data)
					if err := c.solve(); err != nil {
						b.Fatal(err)
					}
				}
				n, nc := float64(p.N), float64(phi.Cols)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(n*n*n/6+c.sweeps*n*n*nc/2), "ns/madd")
			})
		}
	}
}

// BenchmarkBlockJacobi measures the block-Jacobi preconditioner on the
// crossing pair's dense near blocks at 0.4 um (N = 524, ten blocks): one
// construction — a packed copy and a factorization per block — and 50
// Applies, about what one cold solve asks of it. B/op is the
// construction's: a warm Apply allocates nothing.
func BenchmarkBlockJacobi(b *testing.B) {
	spec := crossingSpec(b, 0.4e-6).withDefaults()
	m := spec.AssembleDense()
	a := NewDenseOperator(m, spec.Panels, nil)
	diag := make([]float64, m.N)
	for i := range diag {
		diag[i] = m.At(i, i)
	}
	r, dst := make([]float64, m.N), make([]float64, m.N)
	for i := range r {
		r[i] = float64(i%7) + 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx, block := a.NearBlocks()
		bj, err := NewBlockJacobiWith(m.N, idx, block, diag, nil)
		if err != nil {
			b.Fatal(err)
		}
		for range 50 {
			bj.Apply(dst, r)
		}
	}
}
