package ratfit

import (
	"errors"
	"fmt"
)

// Grid is a piecewise-rational approximation: the domain box is divided
// into cells along each dimension and each cell is fitted independently.
// This is the practical form of the paper's error control ("the error
// control of this approach relies on the choice of training samples",
// Section 4.2.4): confining each fit to a small cell keeps the fitted
// denominator sign-definite and the error bounded.
type Grid struct {
	dim   int
	lo    []float64
	hi    []float64
	cells []int
	fits  []*Rational

	// MaxTrainRel is the worst per-cell training error.
	MaxTrainRel float64
}

// FitGrid fits f over the box [lo, hi] with cells[i] subdivisions per
// dimension, degree (degN, degM) rationals and the given number of
// training samples per cell.
func FitGrid(f func(w []float64) float64, lo, hi []float64, cells []int,
	samplesPerCell, degN, degM int) (*Grid, error) {
	dim := len(lo)
	if len(hi) != dim || len(cells) != dim {
		return nil, errors.New("ratfit: FitGrid bounds/cells mismatch")
	}
	total := 1
	for _, c := range cells {
		if c < 1 {
			return nil, errors.New("ratfit: FitGrid needs >= 1 cell per dim")
		}
		total *= c
	}
	g := &Grid{dim: dim, lo: lo, hi: hi, cells: cells, fits: make([]*Rational, total)}
	cl := make([]float64, dim)
	ch := make([]float64, dim)
	idx := make([]int, dim)
	for flat := 0; flat < total; flat++ {
		rem := flat
		for i := dim - 1; i >= 0; i-- {
			idx[i] = rem % cells[i]
			rem /= cells[i]
			step := (hi[i] - lo[i]) / float64(cells[i])
			cl[i] = lo[i] + float64(idx[i])*step
			ch[i] = cl[i] + step
		}
		fit, err := FitFunc(f, cl, ch, samplesPerCell, degN, degM)
		if err != nil {
			return nil, fmt.Errorf("ratfit: cell %v: %w", idx, err)
		}
		g.fits[flat] = fit
		if fit.TrainMaxRel > g.MaxTrainRel {
			g.MaxTrainRel = fit.TrainMaxRel
		}
	}
	return g, nil
}

// Eval evaluates the piecewise rational at w (clamped into the domain).
func (g *Grid) Eval(w ...float64) float64 {
	if len(w) != g.dim {
		panic("ratfit: Grid.Eval arity mismatch")
	}
	flat := 0
	for i := 0; i < g.dim; i++ {
		c := g.cells[i]
		u := (w[i] - g.lo[i]) / (g.hi[i] - g.lo[i]) * float64(c)
		ci := int(u)
		if ci < 0 {
			ci = 0
		}
		if ci >= c {
			ci = c - 1
		}
		flat = flat*c + ci
	}
	return g.fits[flat].Eval(w...)
}

// Bytes returns the coefficient storage of all cells.
func (g *Grid) Bytes() int {
	n := 0
	for _, f := range g.fits {
		n += 8 * (len(f.NumCoef) + len(f.DenCoef))
	}
	return n
}
