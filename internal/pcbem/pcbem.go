// Package pcbem is the classical piecewise-constant boundary element method
// that the paper positions as the baseline representation: conductor
// surfaces are discretized into rectangular panels, each carrying an
// unknown constant charge density, with Galerkin interactions assembled
// from the closed-form integrals of internal/kernel.
//
// What is left of it here is the geometric front end: Problem owns the
// panelization and the physics constants, and Spec hands them to the
// operator/solve layer (internal/op). A panel extraction is staged, timed
// and solved in one place, internal/plan; the measuring harnesses that
// build an operator of their own (bench/, cmd/benchfig8) start from a
// Problem's Spec.
package pcbem

import (
	"errors"

	"parbem/internal/geom"
	"parbem/internal/kernel"
	"parbem/internal/op"
	"parbem/internal/sched"
)

// Problem is a panelized extraction problem.
type Problem struct {
	Panels        []geom.Panel
	NumConductors int
	Eps           float64
	Cfg           *kernel.Config
	// Par optionally supplies the executor for parallel assembly and
	// dense matvecs (e.g. a shared sched.Pool); nil means a throwaway
	// sched.Local executor sized by GOMAXPROCS.
	Par sched.Executor
}

// NewProblem panelizes a structure with the given maximum panel edge.
func NewProblem(st *geom.Structure, maxEdge float64) (*Problem, error) {
	if err := st.Validate(); err != nil {
		return nil, err
	}
	panels := st.Panelize(maxEdge)
	if len(panels) == 0 {
		return nil, errors.New("pcbem: no panels generated")
	}
	return &Problem{
		Panels:        panels,
		NumConductors: st.NumConductors(),
		Eps:           kernel.Eps0,
		Cfg:           kernel.DefaultConfig(),
	}, nil
}

// Spec returns the pipeline description of this problem.
func (p *Problem) Spec() op.Spec {
	return op.Spec{
		Panels:        p.Panels,
		NumConductors: p.NumConductors,
		Eps:           p.Eps,
		Cfg:           p.Cfg,
		Exec:          p.Par,
	}
}
