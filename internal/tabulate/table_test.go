package tabulate

import (
	"math"
	"testing"
)

func TestTableExactOnLinearFunctions(t *testing.T) {
	// Multilinear interpolation reproduces multilinear functions exactly.
	dims := []Dim{{0, 1, 5}, {0, 2, 7}, {-1, 1, 4}}
	f := func(x []float64) float64 {
		return 2 + 3*x[0] - x[1] + 0.5*x[2] + x[0]*x[1] - 2*x[1]*x[2] + x[0]*x[1]*x[2]
	}
	tab := Build(dims, f)
	probe := [][]float64{
		{0.13, 1.7, -0.4},
		{0.5, 1, 0},
		{0.99, 0.01, 0.99},
		{0, 0, -1},
		{1, 2, 1},
	}
	for _, p := range probe {
		got := tab.Eval(p...)
		want := f(p)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("Eval(%v) = %g want %g", p, got, want)
		}
	}
}

func TestTableClamping(t *testing.T) {
	tab := Build([]Dim{{0, 1, 3}}, func(x []float64) float64 { return x[0] })
	if got := tab.Eval(-5); got != 0 {
		t.Errorf("clamp below = %g", got)
	}
	if got := tab.Eval(99); got != 1 {
		t.Errorf("clamp above = %g", got)
	}
}

func TestEval2FastPath(t *testing.T) {
	f2 := func(x []float64) float64 { return math.Sin(x[0]) * math.Cos(x[1]) }
	t2 := Build([]Dim{{0, 2, 30}, {0, 2, 30}}, f2)
	for x := 0.05; x < 2; x += 0.3 {
		for y := 0.05; y < 2; y += 0.3 {
			a := t2.Eval(x, y)
			b := t2.Eval2(x, y)
			if math.Abs(a-b) > 1e-14 {
				t.Fatalf("Eval2 mismatch at (%g,%g)", x, y)
			}
		}
	}
}

// TestMaxInterpError compares the table against f at 500 points of a
// Weyl sequence (generators √2 and √3, rationally independent, so the
// points cover the square) and bounds the worst relative error.
func TestMaxInterpError(t *testing.T) {
	f := func(x []float64) float64 { return math.Exp(x[0] + x[1]) }
	tab := Build([]Dim{{0, 1, 200}, {0, 1, 200}}, f)
	var worst float64
	for p := 1; p <= 500; p++ {
		x := []float64{math.Mod(math.Sqrt2*float64(p), 1), math.Mod(math.Sqrt(3)*float64(p), 1)}
		want := f(x)
		if rel := math.Abs(tab.Eval(x...)-want) / want; rel > worst {
			worst = rel
		}
	}
	if worst > 1e-3 {
		t.Fatalf("interp error %g too large for smooth function", worst)
	}
}

func TestBuildPanics(t *testing.T) {
	for _, dims := range [][]Dim{
		nil,
		{{0, 1, 1}},
		{{1, 1, 4}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Build(%v) did not panic", dims)
				}
			}()
			Build(dims, func([]float64) float64 { return 0 })
		}()
	}
}

// Eval interpolates the table multilinearly at x, for any number of
// parameters, clamping coordinates to the tabulated ranges: the reference
// Eval2 is checked against.
func (t *Table) Eval(x ...float64) float64 {
	if len(x) != len(t.dims) {
		panic("tabulate: Eval arity mismatch")
	}
	// Locate the cell and fractional offsets.
	var base int
	// frac and stride per dimension for the 2^k corner walk.
	fracs := make([]float64, len(t.dims))
	strides := make([]int, len(t.dims))
	for i, d := range t.dims {
		u := (x[i] - d.Min) / d.step()
		if u < 0 {
			u = 0
		}
		if u > float64(d.N-1) {
			u = float64(d.N - 1)
		}
		i0 := int(u)
		if i0 > d.N-2 {
			i0 = d.N - 2
		}
		fracs[i] = u - float64(i0)
		base += i0 * t.strides[i]
		strides[i] = t.strides[i]
	}
	return t.interp(base, fracs, strides)
}

// interp walks the 2^k corners of the containing cell.
func (t *Table) interp(base int, fracs []float64, strides []int) float64 {
	k := len(fracs)
	corners := 1 << k
	var sum float64
	for c := 0; c < corners; c++ {
		off := 0
		w := 1.0
		for i := 0; i < k; i++ {
			if c&(1<<i) != 0 {
				off += strides[i]
				w *= fracs[i]
			} else {
				w *= 1 - fracs[i]
			}
		}
		if w != 0 {
			sum += w * t.data[base+off]
		}
	}
	return sum
}
