package basis

import "fmt"

// Function is one instantiable basis function: a conductor tag plus the
// half-open range [TplLo, TplHi) of its templates in the flattened list.
type Function struct {
	Conductor int
	TplLo     int
	TplHi     int
	Kind      Kind
}

// Kind labels the origin of a basis function (useful for diagnostics and
// the examples).
type Kind int

// Basis function kinds.
const (
	KindFace     Kind = iota // per-face constant
	KindShadow               // induced flat template over a facing overlap
	KindArchPair             // induced reflected arch templates
)

// Set is a complete instantiable basis for an extraction problem: N basis
// functions expanded into M >= N templates, with the owner array l of
// paper Figure 3 mapping template index to basis index.
type Set struct {
	Functions     []Function
	Templates     []Template
	Owner         []int // len M; Owner[t] = basis index (non-decreasing)
	NumConductors int
}

// N returns the number of basis functions.
func (s *Set) N() int { return len(s.Functions) }

// M returns the number of templates.
func (s *Set) M() int { return len(s.Templates) }

// Validate checks the structural invariants: template ranges are
// contiguous, cover the template list exactly, and Owner is consistent
// and non-decreasing (required by the column-contiguity of the
// distributed-memory partial matrices, paper Figure 5).
func (s *Set) Validate() error {
	next := 0
	for fi, f := range s.Functions {
		if f.TplLo != next {
			return fmt.Errorf("basis: function %d template range starts at %d, want %d", fi, f.TplLo, next)
		}
		if f.TplHi <= f.TplLo {
			return fmt.Errorf("basis: function %d has no templates", fi)
		}
		if f.Conductor < 0 || f.Conductor >= s.NumConductors {
			return fmt.Errorf("basis: function %d conductor %d out of range", fi, f.Conductor)
		}
		for t := f.TplLo; t < f.TplHi; t++ {
			if s.Owner[t] != fi {
				return fmt.Errorf("basis: Owner[%d] = %d, want %d", t, s.Owner[t], fi)
			}
		}
		next = f.TplHi
	}
	if next != len(s.Templates) {
		return fmt.Errorf("basis: %d templates assigned, %d exist", next, len(s.Templates))
	}
	if len(s.Owner) != len(s.Templates) {
		return fmt.Errorf("basis: owner array length %d != %d templates", len(s.Owner), len(s.Templates))
	}
	for _, tpl := range s.Templates {
		if tpl.Support.Area() <= 0 {
			return fmt.Errorf("basis: template with non-positive support area")
		}
		if tpl.Amplitude == 0 {
			return fmt.Errorf("basis: template with zero amplitude")
		}
	}
	return nil
}

// Moments returns the per-basis-function integral of the basis function
// over its support (the sum of its template moments). Entry i is the
// right-hand-side contribution of psi_i against a unit potential.
func (s *Set) Moments() []float64 {
	m := make([]float64, s.N())
	for fi, f := range s.Functions {
		var sum float64
		for t := f.TplLo; t < f.TplHi; t++ {
			sum += s.Templates[t].Moment()
		}
		m[fi] = sum
	}
	return m
}

// Clone returns a deep copy of the set's slices (templates hold immutable
// shape values, which are shared). It models each distributed-memory rank
// holding its own copy of the template definitions.
func (s *Set) Clone() *Set {
	c := &Set{
		Functions:     make([]Function, len(s.Functions)),
		Templates:     make([]Template, len(s.Templates)),
		Owner:         make([]int, len(s.Owner)),
		NumConductors: s.NumConductors,
	}
	copy(c.Functions, s.Functions)
	copy(c.Templates, s.Templates)
	copy(c.Owner, s.Owner)
	return c
}

// CountKinds counts the basis functions of each kind (basis, assembly tests).
func (s *Set) CountKinds() map[Kind]int {
	c := make(map[Kind]int)
	for _, f := range s.Functions {
		c[f.Kind]++
	}
	return c
}
