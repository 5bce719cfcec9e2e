package assembly

import (
	"math"
	"testing"
	"testing/quick"

	"parbem/internal/basis"
	"parbem/internal/geom"
	"parbem/internal/kernel"
	"parbem/internal/linalg"
	"parbem/internal/sched"
)

func TestKToIJRoundtrip(t *testing.T) {
	// Exhaustive for small M.
	m := 40
	k := int64(0)
	for j := 0; j < m; j++ {
		for i := 0; i <= j; i++ {
			gi, gj := KToIJ(k)
			if gi != i || gj != j {
				t.Fatalf("KToIJ(%d) = (%d,%d), want (%d,%d)", k, gi, gj, i, j)
			}
			if IJToK(i, j) != k {
				t.Fatalf("IJToK(%d,%d) = %d, want %d", i, j, IJToK(i, j), k)
			}
			k++
		}
	}
	if k != NumPairs(m) {
		t.Fatalf("NumPairs(%d) = %d, want %d", m, NumPairs(m), k)
	}
}

func TestKToIJProperty(t *testing.T) {
	f := func(raw uint32) bool {
		k := int64(raw % 50_000_000)
		i, j := KToIJ(k)
		return i >= 0 && i <= j && IJToK(i, j) == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPartitionK(t *testing.T) {
	b := PartitionK(100, 7)
	if len(b) != 8 || b[0] != 0 || b[7] != 100 {
		t.Fatalf("bounds = %v", b)
	}
	for i := 0; i < 7; i++ {
		if b[i+1] < b[i] {
			t.Fatalf("non-monotone bounds %v", b)
		}
	}
	// Equal division except remainder in the last partition (paper).
	for i := 0; i < 6; i++ {
		if b[i+1]-b[i] != 14 {
			t.Fatalf("partition %d size %d, want 14", i, b[i+1]-b[i])
		}
	}
	if b[7]-b[6] != 16 {
		t.Fatalf("last partition size %d, want 16", b[7]-b[6])
	}
}

// flatTpl builds a flat template on a z-plane rectangle.
func flatTpl(x0, x1, y0, y1, z float64) basis.Template {
	return basis.Template{
		Support: geom.Rect{Normal: geom.Z, Offset: z,
			U: geom.Interval{Lo: x0, Hi: x1}, V: geom.Interval{Lo: y0, Hi: y1}},
		Dir: basis.VaryNone, Shape: basis.FlatShape{}, Amplitude: 1,
	}
}

// nearFlatArch is an arch shape so wide it is numerically constant ~ 1.
func nearFlatArch() basis.ArchShape {
	return basis.ArchShape{EdgePos: 0.5, LambdaIn: 1e6, LambdaOut: 1e6}
}

func TestTemplatePairFlatFlatMatchesKernel(t *testing.T) {
	in := NewIntegrator()
	in.Cfg.DisableApprox = true
	a := flatTpl(0, 1, 0, 1, 0)
	b := flatTpl(0.5, 2, 1, 3, 0.8)
	got := in.TemplatePair(&a, &b)
	want := kernel.RectGalerkin(in.Cfg, a.Support, b.Support)
	if math.Abs(got-want) > 1e-12*math.Abs(want) {
		t.Fatalf("flat-flat = %g want %g", got, want)
	}
}

func TestStripPairNearlyFlatMatchesClosedForm(t *testing.T) {
	// A shaped template whose shape is ~1 must reproduce the flat-flat
	// closed form, exercising the GalerkinStrip quadrature path.
	in := NewIntegrator()
	in.Cfg.DisableApprox = true
	shaped := flatTpl(0, 1, 0, 1, 0)
	shaped.Dir = basis.VaryU
	shaped.Shape = nearFlatArch()
	for _, zc := range []struct {
		z    float64
		name string
	}{{0.9, "parallel-offset"}, {0, "coplanar"}} {
		flat := flatTpl(0.2, 1.5, -1, 0.5, zc.z)
		if zc.z == 0 {
			// Coplanar non-overlapping for a clean singularity-free check.
			flat = flatTpl(1.3, 2.5, 0, 1, 0)
		}
		got := in.TemplatePair(&shaped, &flat)
		ref := kernel.RectGalerkin(in.Cfg, shaped.Support, flat.Support)
		if rel := math.Abs(got-ref) / math.Abs(ref); rel > 1e-6 {
			t.Errorf("%s: shaped~flat = %g want %g (rel %g)", zc.name, got, ref, rel)
		}
		// Symmetric orientation (flat template first).
		got2 := in.TemplatePair(&flat, &shaped)
		if rel := math.Abs(got2-ref) / math.Abs(ref); rel > 1e-6 {
			t.Errorf("%s reversed: %g want %g", zc.name, got2, ref)
		}
	}
}

func TestPairSameAxisNearlyFlatMatchesClosedForm(t *testing.T) {
	in := NewIntegrator()
	in.Cfg.DisableApprox = true
	a := flatTpl(0, 1, 0, 1, 0)
	a.Dir = basis.VaryU
	a.Shape = nearFlatArch()
	b := flatTpl(0.3, 1.8, 0.5, 2, 1.1)
	b.Dir = basis.VaryU
	b.Shape = nearFlatArch()
	got := in.TemplatePair(&a, &b)
	ref := kernel.RectGalerkin(in.Cfg, a.Support, b.Support)
	if rel := math.Abs(got-ref) / math.Abs(ref); rel > 1e-5 {
		t.Fatalf("1D-1D same axis = %g want %g (rel %g)", got, ref, rel)
	}
}

func TestPairSameAxisSelfTermFinitePositive(t *testing.T) {
	// Self interaction of an arch template (identical supports, coplanar):
	// must be finite, positive, and close to the flat self-term when the
	// shape is nearly constant.
	in := NewIntegrator()
	in.Cfg.DisableApprox = true
	a := flatTpl(0, 1, 0, 0.5, 0)
	a.Dir = basis.VaryU
	a.Shape = nearFlatArch()
	got := in.TemplatePair(&a, &a)
	ref := kernel.SelfGalerkin(a.Support)
	if math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("self term not finite: %g", got)
	}
	if got <= 0 {
		t.Fatalf("self term non-positive: %g", got)
	}
	// Log-singular diagonal integrated by Gauss tensor rule: expect a few
	// percent accuracy, not machine precision.
	if rel := math.Abs(got-ref) / ref; rel > 0.05 {
		t.Fatalf("self term = %g want ~%g (rel %g)", got, ref, rel)
	}
}

func TestGenericPairCrossAxesNearlyFlat(t *testing.T) {
	in := NewIntegrator()
	in.Cfg.DisableApprox = true
	a := flatTpl(0, 1, 0, 1, 0)
	a.Dir = basis.VaryU
	a.Shape = nearFlatArch()
	b := flatTpl(0.2, 1.2, 0.1, 0.9, 1.3)
	b.Dir = basis.VaryV
	b.Shape = nearFlatArch()
	got := in.TemplatePair(&a, &b)
	ref := kernel.RectGalerkin(in.Cfg, a.Support, b.Support)
	if rel := math.Abs(got-ref) / math.Abs(ref); rel > 1e-4 {
		t.Fatalf("cross-axis pair = %g want %g (rel %g)", got, ref, rel)
	}
}

func TestGenericPairPerpendicularPlanes(t *testing.T) {
	in := NewIntegrator()
	in.Cfg.DisableApprox = true
	a := flatTpl(0, 1, 0, 1, 0)
	a.Dir = basis.VaryU
	a.Shape = nearFlatArch()
	b := basis.Template{
		Support: geom.Rect{Normal: geom.X, Offset: 2,
			U: geom.Interval{Lo: 0, Hi: 1}, V: geom.Interval{Lo: 0, Hi: 1}},
		Dir: basis.VaryNone, Shape: basis.FlatShape{}, Amplitude: 1,
	}
	got := in.TemplatePair(&a, &b)
	ref := kernel.RectGalerkin(in.Cfg, a.Support, b.Support)
	if rel := math.Abs(got-ref) / math.Abs(ref); rel > 1e-4 {
		t.Fatalf("perpendicular pair = %g want %g (rel %g)", got, ref, rel)
	}
}

func TestTemplatePairFarField(t *testing.T) {
	in := NewIntegrator() // approximations ON
	exact := NewIntegrator()
	exact.Cfg.DisableApprox = true
	a := flatTpl(0, 1, 0, 1, 0)
	b := flatTpl(50, 51, 50, 51, 3)
	got := in.TemplatePair(&a, &b)
	want := exact.TemplatePair(&a, &b)
	if rel := math.Abs(got-want) / want; rel > 1e-2 {
		t.Fatalf("far-field approx error %g", rel)
	}
}

func TestAmplitudeBilinearity(t *testing.T) {
	in := NewIntegrator()
	a := flatTpl(0, 1, 0, 1, 0)
	b := flatTpl(0, 1, 0, 1, 2)
	base := in.TemplatePair(&a, &b)
	a2, b2 := a, b
	a2.Amplitude = 3
	b2.Amplitude = -2
	got := in.TemplatePair(&a2, &b2)
	if math.Abs(got-(-6)*base) > 1e-12*math.Abs(base) {
		t.Fatalf("bilinearity: %g vs %g", got, -6*base)
	}
}

// buildSmallSet builds the basis for the default crossing pair.
func buildSmallSet(t *testing.T) *basis.Set {
	t.Helper()
	st := geom.DefaultCrossingPair().Build()
	set := basis.Build(st, basis.BuilderOptions{})
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	return set
}

func TestBuildCrossingBasis(t *testing.T) {
	set := buildSmallSet(t)
	if set.N() < 14 { // 12 faces + induced
		t.Fatalf("N = %d too small", set.N())
	}
	if set.M() <= set.N() {
		t.Fatalf("M = %d should exceed N = %d (multi-template bases)", set.M(), set.N())
	}
	ratio := float64(set.M()) / float64(set.N())
	if ratio < 1.05 || ratio > 3.5 {
		t.Errorf("M/N = %.2f outside the paper's practical range", ratio)
	}
	kinds := set.CountKinds()
	if kinds[basis.KindFace] != 12 {
		t.Errorf("face bases = %d, want 12", kinds[basis.KindFace])
	}
	if kinds[basis.KindShadow] == 0 {
		t.Errorf("missing induced bases: %v", kinds)
	}
	// Owner non-decreasing.
	for i := 1; i < len(set.Owner); i++ {
		if set.Owner[i] < set.Owner[i-1] {
			t.Fatal("owner array not monotone")
		}
	}
}

func TestFillSerialProducesSPDMatrix(t *testing.T) {
	set := buildSmallSet(t)
	in := NewIntegrator()
	S := FillSerial(set, in)
	P := S.Dense()
	if P.Rows != set.N() {
		t.Fatalf("P is %dx%d", P.Rows, P.Cols)
	}
	// Positive diagonal.
	for i := 0; i < P.Rows; i++ {
		if P.At(i, i) <= 0 {
			t.Fatalf("P[%d][%d] = %g <= 0", i, i, P.At(i, i))
		}
	}
	f, err := linalg.FactorSym(S)
	if err != nil {
		t.Fatalf("P not SPD: %v", err)
	}
	if in := f.Inertia(); in.Negative != 0 {
		t.Fatalf("P not SPD: inertia %+v", in)
	}
}

func TestPartialMergeEqualsSerial(t *testing.T) {
	set := buildSmallSet(t)
	in := NewIntegrator()
	want := FillSerial(set, in)

	// Partition boundaries can split a multi-template basis function's
	// accumulation order, so agreement is to rounding, not bit-exact.
	var scale float64
	for _, v := range want.Data {
		if math.Abs(v) > scale {
			scale = math.Abs(v)
		}
	}
	K := NumPairs(set.M())
	for _, d := range []int{2, 3, 7} {
		P := linalg.NewSym(set.N())
		bounds := PartitionK(K, d)
		for p := 0; p < d; p++ {
			part := NewPartial(set, bounds[p], bounds[p+1])
			FillRanges(set, in, bounds[p:p+2], sched.Local(1), part)
			part.MergeInto(P)
		}
		if diff := linalg.MaxAbsDiff(P.Dense(), want.Dense()); diff > 1e-12*scale {
			t.Fatalf("d=%d: partition merge differs from serial by %g", d, diff)
		}
	}
}

// TestCondensationFigure3 reproduces the paper's Figure 3 example: N=4
// basis functions, M=5 templates where basis 2 (0-based) owns templates 2
// and 3. The off-diagonal template pair (2,3) must contribute twice to the
// diagonal entry P[2][2].
func TestCondensationFigure3(t *testing.T) {
	// Five unit squares far apart on the z=0 plane.
	mk := func(x float64) basis.Template { return flatTpl(x, x+1, 0, 1, 0) }
	set := &basis.Set{
		NumConductors: 1,
		Templates:     []basis.Template{mk(0), mk(10), mk(20), mk(30), mk(40)},
		Owner:         []int{0, 1, 2, 2, 3},
		Functions: []basis.Function{
			{Conductor: 0, TplLo: 0, TplHi: 1},
			{Conductor: 0, TplLo: 1, TplHi: 2},
			{Conductor: 0, TplLo: 2, TplHi: 4},
			{Conductor: 0, TplLo: 4, TplHi: 5},
		},
	}
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	in := NewIntegrator()
	in.Cfg.DisableApprox = true
	P := FillSerial(set, in)

	// Manual condensation from the raw template matrix.
	var ptRaw [5][5]float64
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			ptRaw[i][j] = in.TemplatePair(&set.Templates[i], &set.Templates[j])
		}
	}
	want22 := ptRaw[2][2] + ptRaw[3][3] + ptRaw[2][3] + ptRaw[3][2]
	if rel := math.Abs(P.At(2, 2)-want22) / want22; rel > 1e-12 {
		t.Errorf("P[2][2] = %g, want %g (double-count rule)", P.At(2, 2), want22)
	}
	want02 := ptRaw[0][2] + ptRaw[0][3]
	if rel := math.Abs(P.At(0, 2)-want02) / math.Abs(want02); rel > 1e-12 {
		t.Errorf("P[0][2] = %g, want %g", P.At(0, 2), want02)
	}
	if P.At(2, 0) != P.At(0, 2) {
		t.Error("P not symmetric")
	}
}
