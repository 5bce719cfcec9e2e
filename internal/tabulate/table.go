// Package tabulate is the table behind the integration accelerations of
// paper Sections 4.2.1 and 4.2.2: a scalar function sampled on a regular
// multi-parameter grid and interpolated multilinearly. Direct tabulation
// stores the definite integral; tabulating the indefinite integral needs
// fewer parameters and is evaluated by corner differencing.
//
// The fill does not read tables: since it integrates each symmetry class
// of template pairs once (package assembly) a lookup has almost nothing
// left to save, and the tabulated collocation kernel that was wired
// through it measured as a loss end to end. What remains is what the
// paper's Table 1 measures — cmd/benchtables and BenchmarkTable1_* build
// both tabulations of the simplified 2-D expression of Eq. (13) on a
// Table and time them against the closed form.
package tabulate

import "fmt"

// Dim describes one tabulated parameter: a closed range [Min, Max] sampled
// at N grid points (N >= 2).
type Dim struct {
	Min, Max float64
	N        int
}

// step returns the grid spacing.
func (d Dim) step() float64 { return (d.Max - d.Min) / float64(d.N-1) }

// Table is a regular-grid tabulation of a scalar function of k parameters
// with multilinear interpolation.
type Table struct {
	dims    []Dim
	strides []int
	data    []float64
}

// Build samples f on the full tensor grid defined by dims. The cost is
// prod(N_i) evaluations of f.
func Build(dims []Dim, f func(x []float64) float64) *Table {
	if len(dims) == 0 {
		panic("tabulate: no dimensions")
	}
	total := 1
	strides := make([]int, len(dims))
	for i := len(dims) - 1; i >= 0; i-- {
		if dims[i].N < 2 {
			panic(fmt.Sprintf("tabulate: dim %d needs N >= 2", i))
		}
		if !(dims[i].Max > dims[i].Min) {
			panic(fmt.Sprintf("tabulate: dim %d has empty range", i))
		}
		strides[i] = total
		total *= dims[i].N
	}
	t := &Table{dims: dims, strides: strides, data: make([]float64, total)}
	x := make([]float64, len(dims))
	idx := make([]int, len(dims))
	for flat := 0; flat < total; flat++ {
		rem := flat
		for i := range dims {
			idx[i] = rem / strides[i]
			rem %= strides[i]
			x[i] = dims[i].Min + float64(idx[i])*dims[i].step()
		}
		t.data[flat] = f(x)
	}
	return t
}

// Bytes returns the memory footprint of the table payload.
func (t *Table) Bytes() int { return 8 * len(t.data) }

// Eval2 is an allocation-free fast path for 2-parameter tables.
func (t *Table) Eval2(x0, x1 float64) float64 {
	d0, d1 := t.dims[0], t.dims[1]
	u0 := clampU((x0-d0.Min)/d0.step(), d0.N)
	u1 := clampU((x1-d1.Min)/d1.step(), d1.N)
	i0, f0 := splitU(u0, d0.N)
	i1, f1 := splitU(u1, d1.N)
	s0, s1 := t.strides[0], t.strides[1]
	base := i0*s0 + i1*s1
	v00 := t.data[base]
	v01 := t.data[base+s1]
	v10 := t.data[base+s0]
	v11 := t.data[base+s0+s1]
	return v00*(1-f0)*(1-f1) + v01*(1-f0)*f1 + v10*f0*(1-f1) + v11*f0*f1
}

func clampU(u float64, n int) float64 {
	if u < 0 {
		return 0
	}
	if u > float64(n-1) {
		return float64(n - 1)
	}
	return u
}

func splitU(u float64, n int) (int, float64) {
	i := int(u)
	if i > n-2 {
		i = n - 2
	}
	return i, u - float64(i)
}
