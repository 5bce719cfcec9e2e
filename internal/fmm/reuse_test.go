package fmm

import (
	"math"
	"testing"

	"parbem/internal/assembly"
	"parbem/internal/geom"
)

// variantPanels builds the crossing pair at separation h with box
// provenance, for the reuse tests.
func variantPanels(h, edge float64) ([]geom.Panel, []geom.BoxRef, *geom.Structure) {
	sp := geom.DefaultCrossingPair()
	sp.H = h
	st := sp.Build()
	panels, prov := st.PanelizeProv(edge)
	return panels, prov, st
}

// classesFor derives the per-panel rigid-motion classes between two
// crossing variants the way internal/plan does: one class per distinct
// box translation.
func classesFor(a, b *geom.Structure, prov []geom.BoxRef) []int32 {
	d := geom.Diff(a, b)
	if !d.Comparable {
		return nil
	}
	classOf := map[geom.Vec3]int32{}
	cls := make([]int32, len(prov))
	for i, pr := range prov {
		bd := d.Boxes[pr.Conductor][pr.Box]
		if bd.Change == geom.BoxChanged {
			cls[i] = -1
			continue
		}
		id, ok := classOf[bd.Delta]
		if !ok {
			id = int32(len(classOf))
			classOf[bd.Delta] = id
		}
		cls[i] = id
	}
	return cls
}

// TestOperatorReuseMatchesFresh pins the delta-aware construction to a
// from-scratch build of the same variant: the reused operator must copy
// a substantial share of its exact entries from the previous variant
// and still produce (near-)identical matvecs.
func TestOperatorReuseMatchesFresh(t *testing.T) {
	const edge = 0.4e-6
	pa, _, sta := variantPanels(0.5e-6, edge)
	pb, prov, stb := variantPanels(0.7e-6, edge)
	if len(pa) != len(pb) {
		t.Fatalf("variant panel counts differ: %d vs %d", len(pa), len(pb))
	}
	opt := Options{Workers: 1}

	prev := NewOperator(pa, opt)
	fresh := NewOperator(pb, opt)
	cls := classesFor(sta, stb, prov)
	if cls == nil {
		t.Fatal("variants not comparable")
	}
	reused := NewOperatorWith(NewTopology(pb, opt), pb, opt, &Reuse{Prev: prev, Class: cls})

	copied, computed := reused.NearReuse()
	if copied == 0 {
		t.Fatal("reuse construction copied no entries")
	}
	if copied < computed {
		t.Errorf("copied %d < computed %d: within-layer pairs should dominate the near field",
			copied, computed)
	}
	if c, _ := fresh.NearReuse(); c != 0 {
		t.Errorf("fresh construction reports %d copied entries", c)
	}

	// Matvec agreement: copied entries differ from re-integrated ones
	// only through the ~ulp coordinate noise of the variant build.
	n := len(pb)
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(3*i + 1))
	}
	yf := make([]float64, n)
	yr := make([]float64, n)
	fresh.Apply(yf, x)
	reused.Apply(yr, x)
	var num, den float64
	for i := range yf {
		d := yf[i] - yr[i]
		num += d * d
		den += yf[i] * yf[i]
	}
	if rel := math.Sqrt(num / den); rel > 1e-12 {
		t.Errorf("reused matvec deviates from fresh by %g relative", rel)
	}
}

// TestReuseLookupBitwise pins the lookup addressing: every value the
// previous-variant lookup serves must be bitwise equal to canonically
// re-integrating that pair with the previous variant's panels.
func TestReuseLookupBitwise(t *testing.T) {
	const edge = 0.4e-6
	pa, _, sta := variantPanels(0.5e-6, edge)
	_, prov, stb := variantPanels(0.7e-6, edge)
	opt := Options{Workers: 1}
	prev := NewOperator(pa, opt)
	cls := classesFor(sta, stb, prov)
	look := newNearLookup(&Reuse{Prev: prev, Class: cls})
	n := int32(len(pa))
	checked, bad := 0, 0
	var fill assembly.FillStats
	for pi := int32(0); pi < n; pi++ {
		for pj := pi; pj < n; pj += 7 {
			v, ok := look.value(pi, pj)
			if !ok {
				continue
			}
			checked++
			if v != prev.nearValue(pi, pj, true, &fill) {
				bad++
			}
		}
	}
	if checked == 0 {
		t.Fatal("lookup served no entries")
	}
	if bad != 0 {
		t.Errorf("%d of %d lookup values not bitwise equal to canonical integration", bad, checked)
	}
}

// TestOperatorReuseRejectsMismatch verifies that incompatible reuse
// requests degrade to a full fresh fill instead of corrupting entries.
func TestOperatorReuseRejectsMismatch(t *testing.T) {
	const edge = 0.5e-6
	pa, _, _ := variantPanels(0.5e-6, edge)
	pb, prov, _ := variantPanels(0.7e-6, edge)
	opt := Options{Workers: 1}
	prev := NewOperator(pa, opt)

	// Eps mismatch: copied values would bake in the wrong scale.
	cls := make([]int32, len(prov))
	other := Options{Workers: 1, Eps: 2 * prev.opt.Eps}
	op := NewOperatorWith(NewTopology(pb, other), pb, other, &Reuse{Prev: prev, Class: cls})
	if c, _ := op.NearReuse(); c != 0 {
		t.Errorf("eps-mismatched reuse copied %d entries", c)
	}

	// Class slice length mismatch.
	op = NewOperatorWith(NewTopology(pb, opt), pb, opt, &Reuse{Prev: prev, Class: cls[:1]})
	if c, _ := op.NearReuse(); c != 0 {
		t.Errorf("short-class reuse copied %d entries", c)
	}
}
