// Package solver drives end-to-end capacitance extraction with
// instantiable basis functions: basis generation, (optionally parallel)
// system setup, and the direct solve. The paper recovers C = Phi^T rho
// with rho = P^-1 Phi (Section 2.1); with the factorization
// S P S = Π L D Lᵀ Πᵀ that is C = Yᵀ D⁻¹ Y, Y = L⁻¹ Πᵀ S Phi, one forward
// sweep and no charges (op.DirectCapacitance).
package solver

import (
	"errors"
	"fmt"
	"math"
	"time"

	"parbem/internal/assembly"
	"parbem/internal/basis"
	"parbem/internal/geom"
	"parbem/internal/kernel"
	"parbem/internal/linalg"
	"parbem/internal/mpi"
	"parbem/internal/op"
	"parbem/internal/par"
	"parbem/internal/sched"
)

// Backend selects how the system setup step is executed.
type Backend int

// Available execution backends.
const (
	Serial      Backend = iota // single node (Algorithm 1 on the full k-range)
	SharedMem                  // goroutine worker pool (OpenMP analog, Fig. 4)
	Distributed                // private-memory ranks, one partial each (MPI analog, Fig. 6)
)

// String implements fmt.Stringer.
func (b Backend) String() string {
	switch b {
	case Serial:
		return "serial"
	case SharedMem:
		return "shared-memory"
	case Distributed:
		return "distributed-memory"
	}
	return fmt.Sprintf("Backend(%d)", int(b))
}

// Options configures extraction.
type Options struct {
	Backend Backend
	// Workers is the parallel nodes D (0 = GOMAXPROCS for SharedMem, 1
	// for others): for Distributed, the ranks, each filling its own rows.
	Workers int

	// Kernel overrides the integration configuration (nil = defaults).
	Kernel *kernel.Config
}

// Timing is the phase breakdown of one extraction.
type Timing struct {
	BasisGen time.Duration
	Setup    time.Duration // system matrix fill (the dominant phase)
	Solve    time.Duration // factorization + forward sweep + C = Yᵀ D⁻¹ Y
	Total    time.Duration
}

// Result is a completed extraction.
type Result struct {
	// C is the n x n Maxwell capacitance matrix in farads.
	C *linalg.Dense
	// N and M are the basis-function and template counts.
	N, M int
	// MatrixBytes is the memory held by the system matrix, the one packed
	// lower triangle of N(N+1)/2 doubles an extraction holds: the fill
	// writes it, and the scaling and the direct solve work on it in place.
	MatrixBytes int
	Timing      Timing
	// Fill counts the work of the system setup: far and near template
	// pairs, symmetry classes integrated, and the class table's size.
	Fill assembly.FillStats
	// Set is the generated basis (exposed for diagnostics and examples).
	Set *basis.Set
	// Inertia is what the solve's factorization found: Negative > 0 says
	// the system matrix was not positive definite (see op.Options.Direct
	// for why a template matrix may not be, and why it is still solved).
	Inertia linalg.Inertia
}

// ErrSelfCapacitance reports a capacitance matrix with a self-capacitance
// C_ii that is not positive or not finite: no physical structure has one,
// so the system matrix was too inaccurate to solve (see op.Options.Direct
// for how quadrature error makes a template matrix indefinite).
var ErrSelfCapacitance = errors.New("solver: self-capacitance not positive")

// Extract runs the full pipeline on a structure.
func Extract(st *geom.Structure, opt Options) (*Result, error) {
	if err := st.Validate(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	set, err := BuildBasis(st, basis.BuilderOptions{})
	if err != nil {
		return nil, err
	}
	tBasis := time.Since(t0)

	res, err := ExtractSet(set, opt, nil, nil)
	if err != nil {
		return nil, err
	}
	res.Timing.BasisGen = tBasis
	res.Timing.Total += tBasis
	return res, nil
}

// BuildBasis generates and validates the instantiable basis for a
// structure. It is the basis-stage entry point the batch engine caches
// behind its geometry-signature key.
func BuildBasis(st *geom.Structure, bopt basis.BuilderOptions) (*basis.Set, error) {
	set := basis.Build(st, bopt)
	if err := set.Validate(); err != nil {
		return nil, fmt.Errorf("solver: generated basis invalid: %w", err)
	}
	return set, nil
}

// ExtractSet runs system setup and solve on an already-built basis set
// (which is read shared, never mutated, so one cached set may serve many
// concurrent calls). Timing.BasisGen is zero. A non-nil pairs is the
// symmetry-class table the fill reads and extends (the batch engine shares
// one across its extractions); nil gives the fill a table of its own, so
// a lone extraction still integrates each class of its structure once. A
// non-nil pool runs the SharedMem fill chunks on that persistent worker
// pool (and the caller) instead of spawning per-call workers.
func ExtractSet(set *basis.Set, opt Options, pairs *assembly.PairCache, pool *sched.Pool) (*Result, error) {
	cfg := opt.Kernel
	if cfg == nil {
		cfg = kernel.DefaultConfig()
	}

	in := &assembly.Integrator{Cfg: cfg, Pairs: pairs}

	t1 := time.Now()
	P, err := fill(set, in, opt, pool)
	if err != nil {
		return nil, err
	}
	// Physical scaling 1/(4*pi*eps0).
	linalg.Scal(1/kernel.FourPiEps0, P.Data)
	tSetup := time.Since(t1)

	t2 := time.Now()
	sol, err := solveSystem(set, P)
	if err != nil {
		return nil, err
	}
	tSolve := time.Since(t2)
	if err := checkSelfCapacitance(sol); err != nil {
		return nil, err
	}

	return &Result{
		C:           sol.C,
		Inertia:     sol.Inertia,
		N:           set.N(),
		M:           set.M(),
		MatrixBytes: 8 * len(P.Data),
		Set:         set,
		Fill:        in.FillStats(),
		Timing: Timing{
			Setup: tSetup,
			Solve: tSolve,
			Total: tSetup + tSolve,
		},
	}, nil
}

// fill dispatches the system setup to the selected backend.
func fill(set *basis.Set, in *assembly.Integrator, opt Options, pool *sched.Pool) (*linalg.Sym, error) {
	switch opt.Backend {
	case Serial:
		return assembly.FillSerial(set, in), nil
	case SharedMem:
		return par.FillSym(set, in, par.Options{Workers: opt.Workers, Pool: pool}), nil
	case Distributed:
		return mpi.FillDistributed(set, in, mpi.NewNetwork(max(opt.Workers, 1))), nil
	}
	return nil, errors.New("solver: unknown backend")
}

// checkSelfCapacitance returns an ErrSelfCapacitance naming the first
// conductor whose C_ii is not positive, how many there are, and the
// inertia the factorization found.
func checkSelfCapacitance(sol *op.Result) error {
	first, bad := -1, 0
	for i := 0; i < sol.C.Rows; i++ {
		if v := sol.C.At(i, i); !(v > 0) || math.IsInf(v, 0) {
			if bad++; first < 0 {
				first = i
			}
		}
	}
	if bad == 0 {
		return nil
	}
	return fmt.Errorf("%w: conductor %d has C_ii = %g F, %d of %d self-capacitances are not positive; inertia %d negative pivots, %d 2x2 blocks",
		ErrSelfCapacitance, first, sol.C.At(first, first), bad, sol.C.Rows, sol.Inertia.Negative, sol.Inertia.Blocks2x2)
}

// solveSystem recovers C = Phi^T P^-1 Phi, Phi the conductor-indicator
// right-hand sides weighted by basis moments, by the unified pipeline's
// direct solve (one equilibrated, pivoted LDLᵀ of P, in P's own packed
// storage — see op.Options.Direct). The charges are not wanted, so it
// hands op each unknown's conductor and moment, and C = Yᵀ D⁻¹ Y comes
// from the forward sweep alone.
func solveSystem(set *basis.Set, P *linalg.Sym) (*op.Result, error) {
	cond := make([]int, set.N())
	for i, f := range set.Functions {
		cond[i] = f.Conductor
	}
	res, err := op.DirectCapacitance(P, cond, set.Moments(), set.NumConductors)
	if err != nil {
		return nil, fmt.Errorf("solver: %w", err)
	}
	return res, nil
}
