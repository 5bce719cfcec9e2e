package geom

// BoxChange classifies how one conductor box differs between two
// structure variants.
type BoxChange int

// Box change kinds.
const (
	// BoxSame: the box is bitwise identical in both variants.
	BoxSame BoxChange = iota
	// BoxTranslated: the box kept its exact (bitwise) dimensions but
	// moved rigidly. Its panelization has the same panel count and
	// layout, translated by Delta.
	BoxTranslated
	// BoxChanged: the box was resized or otherwise reshaped; nothing
	// about its panels carries over.
	BoxChanged
)

// BoxDelta is the per-box entry of a structural diff.
type BoxDelta struct {
	Change BoxChange
	// Delta is the rigid translation for BoxTranslated (zero for
	// BoxSame, meaningless for BoxChanged).
	Delta Vec3
}

// StructDiff describes how structure b differs from structure a at the
// box level. It is the invalidation input of the staged extraction
// plans (internal/plan): two panels generated from boxes carrying the
// same exact translation have bit-identical relative geometry, so every
// interaction integral between them is unchanged.
type StructDiff struct {
	// Comparable reports whether the two structures have the same
	// conductor and per-conductor box counts, i.e. whether boxes (and
	// hence panels of unchanged boxes) correspond 1:1.
	Comparable bool
	// Identical reports whether every box is BoxSame (implies
	// Comparable).
	Identical bool
	// Boxes[c][k] classifies box k of conductor c (nil when not
	// Comparable).
	Boxes [][]BoxDelta
}

// Diff computes the structural diff from a to b. Box dimensions are
// compared bitwise: a translated box must keep the exact floating-point
// size on every axis, which guarantees its faces panelize into the same
// grid counts at any maxEdge.
func Diff(a, b *Structure) *StructDiff {
	d := &StructDiff{}
	if len(a.Conductors) != len(b.Conductors) {
		return d
	}
	for ci := range a.Conductors {
		if len(a.Conductors[ci].Boxes) != len(b.Conductors[ci].Boxes) {
			return d
		}
	}
	d.Comparable = true
	d.Identical = true
	d.Boxes = make([][]BoxDelta, len(a.Conductors))
	for ci := range a.Conductors {
		ab, bb := a.Conductors[ci].Boxes, b.Conductors[ci].Boxes
		ds := make([]BoxDelta, len(ab))
		for k := range ab {
			ds[k] = boxDelta(ab[k], bb[k])
			if ds[k].Change != BoxSame {
				d.Identical = false
			}
		}
		d.Boxes[ci] = ds
	}
	return d
}

// boxDelta classifies one box pair.
func boxDelta(a, b Box) BoxDelta {
	if a == b {
		return BoxDelta{Change: BoxSame}
	}
	if a.Max.Sub(a.Min) != b.Max.Sub(b.Min) {
		return BoxDelta{Change: BoxChanged}
	}
	return BoxDelta{Change: BoxTranslated, Delta: b.Min.Sub(a.Min)}
}

// Clone returns a deep copy of the structure (boxes copied, names
// shared). Plans snapshot geometry with it so later caller mutations
// cannot corrupt the diff baseline.
func (s *Structure) Clone() *Structure {
	c := &Structure{Name: s.Name, Conductors: make([]*Conductor, len(s.Conductors))}
	for i, cd := range s.Conductors {
		c.Conductors[i] = &Conductor{
			Name:  cd.Name,
			Boxes: append([]Box(nil), cd.Boxes...),
		}
	}
	return c
}
