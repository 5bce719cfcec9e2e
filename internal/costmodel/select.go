package costmodel

import "math"

// This file grows the package beyond the Figure 8 efficiency curves: a
// backend selector for the unified piecewise-constant solve pipeline
// (internal/op). The heuristics encode the asymptotic cost structure of
// the three operator backends:
//
//   - dense: O(N^2) memory and O(N^2) per matvec. Below a couple of
//     thousand panels the quadratic matrix is cheaper than any accelerated
//     operator's construction cost, so small problems always go to the
//     dense operator. Selection picks the operator, not the solve: auto
//     on dense solves by block-Jacobi-preconditioned Krylov, and only a
//     caller that sets op.Options.Direct (serve.PipelineOptions and capx
//     do so for backend "dense" only) gets the exact direct
//     factorization.
//   - precorrected FFT: the grid convolution costs O(G log G) in the
//     number of grid nodes G, *independent of N*. It wins when panels
//     densely fill a compact volume (G comparable to N); it loses badly
//     on spread-out structures where the uniform grid is mostly empty
//     space.
//   - fast multipole: O(N)-ish with geometry-adaptive cost; the safe
//     default for large, sparse or high-aspect structures.
//
// The selector therefore needs only two cheap statistics of the
// panelization: the panel count and the ratio of panels to the logical
// grid nodes a pFFT operator would allocate (the "fill factor").

// Selection thresholds. Exported so callers can report or test the
// decision boundary explicitly.
const (
	// DenseMaxPanels is the largest panel count that automatic selection
	// sends to the dense operator. That operator is solved by Krylov
	// iteration unless op.Options.Direct is set, which serve and capx do
	// only when the request names backend "dense".
	DenseMaxPanels = 1800
	// PFFTMinFill is the minimum panels-per-grid-node fill factor at
	// which the uniform grid is considered efficient.
	PFFTMinFill = 0.35
	// pfftMaxNodes mirrors the pfft operator's default per-axis cap
	// used when estimating the logical grid it would build.
	pfftMaxNodes = 48
)

// Choice is a backend recommendation.
type Choice int

// Backend recommendations, ordered by preference for small problems.
const (
	ChooseDense Choice = iota
	ChooseFMM
	ChoosePFFT
)

// Workload summarizes a panelized extraction problem for backend
// selection. All statistics are O(N) to compute from the panel list.
type Workload struct {
	// Panels is the unknown count N.
	Panels int
	// Span is the bounding-box extent of the panel centers per axis (m).
	Span [3]float64
	// MedianEdge is the median panel long-edge length (m).
	MedianEdge float64
	// Tol is the requested solve tolerance (0 = default). Tight
	// tolerances (< 1e-6) bias away from pFFT, whose grid
	// approximation limits achievable accuracy.
	Tol float64
}

// GridNodes estimates the logical grid node count a pfft operator would
// allocate for this workload, mirroring its automatic spacing rule
// (h = max(medianEdge/2, maxSpan/(maxNodes-1)), dims = span/h + 2).
func (w Workload) GridNodes() int {
	maxSpan := math.Max(w.Span[0], math.Max(w.Span[1], w.Span[2]))
	h := math.Max(w.MedianEdge/2, maxSpan/float64(pfftMaxNodes-1))
	if h <= 0 {
		h = 1
	}
	nodes := 1
	for _, s := range w.Span {
		nodes *= int(s/h) + 2
	}
	return nodes
}

// FillFactor returns panels per estimated grid node: the density measure
// deciding between the uniform-grid and tree-based operators.
func (w Workload) FillFactor() float64 {
	g := w.GridNodes()
	if g <= 0 {
		return 0
	}
	return float64(w.Panels) / float64(g)
}

// Select recommends a solve backend for the workload: dense below
// DenseMaxPanels, then pFFT when the panels fill the estimated grid at
// PFFTMinFill or better (and the tolerance is within the grid's reach),
// otherwise fast multipole.
func Select(w Workload) Choice {
	if w.Panels <= DenseMaxPanels {
		return ChooseDense
	}
	if w.Tol > 0 && w.Tol < 1e-6 {
		// The grid + precorrection approximation cannot chase
		// arbitrarily tight residuals; the tree operator's exact near
		// field can.
		return ChooseFMM
	}
	if w.FillFactor() >= PFFTMinFill {
		return ChoosePFFT
	}
	return ChooseFMM
}
