package geom

import (
	"fmt"
	"math"
)

// Conductor is a named conductor built from one or more axis-aligned boxes
// (e.g. a routed wire with vias). All boxes of a conductor are held at the
// same potential during extraction.
type Conductor struct {
	Name  string
	Boxes []Box
}

// Faces returns all exterior rectangular faces of the conductor's boxes.
// Faces of distinct boxes are not merged; interior (abutting) faces are kept
// since they carry negligible charge and simplify the generators. Use
// Structure.Panelize for discretization.
func (c *Conductor) Faces() []Rect {
	out := make([]Rect, 0, 6*len(c.Boxes))
	for _, b := range c.Boxes {
		fs := b.Faces()
		out = append(out, fs[:]...)
	}
	return out
}

// Structure is a complete n-conductor extraction problem.
type Structure struct {
	Name       string
	Conductors []*Conductor
}

// NumConductors returns the number of conductors.
func (s *Structure) NumConductors() int { return len(s.Conductors) }

// TotalFaces returns the total face count over all conductors.
func (s *Structure) TotalFaces() int {
	n := 0
	for _, c := range s.Conductors {
		n += 6 * len(c.Boxes)
	}
	return n
}

// Panel is a discretization unit: a rectangle tagged with the conductor it
// belongs to.
type Panel struct {
	Rect
	Conductor int // index into Structure.Conductors
}

// Panelize discretizes every conductor face into panels whose edge length
// does not exceed maxEdge (each face is split into a uniform grid). It is
// the discretization used by the piecewise-constant baselines.
func (s *Structure) Panelize(maxEdge float64) []Panel {
	p, _ := s.panelize(maxEdge, false)
	return p
}

// BoxRef identifies the conductor box a panel was generated from.
type BoxRef struct {
	Conductor, Box int32
}

// PanelizeProv is Panelize with provenance: prov[i] records the
// conductor box panel i was split from. The staged extraction plans
// (internal/plan) use it together with Diff to map panels 1:1 across
// geometry variants.
func (s *Structure) PanelizeProv(maxEdge float64) ([]Panel, []BoxRef) {
	return s.panelize(maxEdge, true)
}

// panelize generates the panels in deterministic conductor/box/face
// order, optionally recording provenance. It counts them first, so that
// each slice is allocated once.
func (s *Structure) panelize(maxEdge float64, wantProv bool) ([]Panel, []BoxRef) {
	n := 0
	for _, c := range s.Conductors {
		for _, b := range c.Boxes {
			for _, f := range b.Faces() {
				n += gridCount(f.U.Len(), maxEdge) * gridCount(f.V.Len(), maxEdge)
			}
		}
	}
	out := make([]Panel, 0, n)
	var prov []BoxRef
	if wantProv {
		prov = make([]BoxRef, 0, n)
	}
	var scratch []Rect
	for ci, c := range s.Conductors {
		for bi, b := range c.Boxes {
			fs := b.Faces()
			for _, f := range fs {
				nu := gridCount(f.U.Len(), maxEdge)
				nv := gridCount(f.V.Len(), maxEdge)
				scratch = f.SplitGrid(nu, nv, scratch[:0])
				for _, r := range scratch {
					out = append(out, Panel{Rect: r, Conductor: ci})
				}
				if wantProv {
					for range scratch {
						prov = append(prov, BoxRef{Conductor: int32(ci), Box: int32(bi)})
					}
				}
			}
		}
	}
	return out, prov
}

// gridCount returns how many segments of length <= maxEdge cover length.
func gridCount(length, maxEdge float64) int {
	if length <= 0 || maxEdge <= 0 {
		return 1
	}
	n := int(length/maxEdge + 0.999999)
	if n < 1 {
		n = 1
	}
	return n
}

// Validate checks basic well-formedness: non-empty conductors and boxes
// of finite coordinates and a positive, finite size along every axis
// (which rejects NaN, infinite, zero-thickness and inverted boxes). It
// returns the first problem found.
func (s *Structure) Validate() error {
	if len(s.Conductors) == 0 {
		return fmt.Errorf("geom: structure %q has no conductors", s.Name)
	}
	for ci, c := range s.Conductors {
		if len(c.Boxes) == 0 {
			return fmt.Errorf("geom: conductor %d (%q) has no boxes", ci, c.Name)
		}
		for bi, b := range c.Boxes {
			for _, v := range [6]float64{b.Min.X, b.Min.Y, b.Min.Z, b.Max.X, b.Max.Y, b.Max.Z} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("geom: conductor %d (%q) box %d has a non-finite coordinate: %v to %v",
						ci, c.Name, bi, b.Min, b.Max)
				}
			}
			if sz := b.Size(); !(positiveFinite(sz.X) && positiveFinite(sz.Y) && positiveFinite(sz.Z)) {
				return fmt.Errorf("geom: conductor %d (%q) box %d has size %v, not positive and finite (zero-area, inverted or overflowing)",
					ci, c.Name, bi, sz)
			}
		}
	}
	return nil
}

// positiveFinite reports 0 < v < +Inf; it is false for NaN.
func positiveFinite(v float64) bool { return v > 0 && v <= math.MaxFloat64 }
