// Package quad provides Gauss–Legendre quadrature rules used for the outer
// numerical integration of template Galerkin integrals (paper Eq. 7). Rules
// are computed once per order by Newton iteration on the Legendre polynomial
// and cached.
package quad

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Rule holds the nodes and weights of an n-point Gauss–Legendre rule on
// [-1, 1]. It integrates polynomials up to degree 2n-1 exactly.
type Rule struct {
	Nodes   []float64
	Weights []float64
}

// cache holds computed rules indexed by order; reads are a single atomic
// load (the rule fetch sits on the innermost integration path of the
// parallel matrix fill, where even an RWMutex read lock causes cache-line
// contention).
var cache [MaxOrder + 1]atomic.Pointer[Rule]

// MaxOrder is the largest supported rule order.
const MaxOrder = 64

// Gauss returns the cached n-point Gauss–Legendre rule. It panics if
// n < 1 or n > MaxOrder, which indicates a programming error.
func Gauss(n int) *Rule {
	if n < 1 || n > MaxOrder {
		panic(fmt.Sprintf("quad: unsupported order %d", n))
	}
	if r := cache[n].Load(); r != nil {
		return r
	}
	r := computeGauss(n)
	cache[n].Store(r) // idempotent: duplicate computation is harmless
	return r
}

// computeGauss builds the rule by Newton iteration from Chebyshev initial
// guesses. Nodes are symmetric about zero; we solve the positive half.
func computeGauss(n int) *Rule {
	r := &Rule{
		Nodes:   make([]float64, n),
		Weights: make([]float64, n),
	}
	m := (n + 1) / 2
	for i := 0; i < m; i++ {
		// Initial guess: Chebyshev points.
		x := math.Cos(math.Pi * (float64(i) + 0.75) / (float64(n) + 0.5))
		var pp float64
		for iter := 0; iter < 100; iter++ {
			p0, p1 := 1.0, 0.0
			// Legendre recurrence: (k+1) P_{k+1} = (2k+1) x P_k - k P_{k-1}.
			for k := 0; k < n; k++ {
				p0, p1 = ((2*float64(k)+1)*x*p0-float64(k)*p1)/float64(k+1), p0
			}
			// Derivative: P'_n(x) = n (x P_n - P_{n-1}) / (x^2 - 1).
			pp = float64(n) * (x*p0 - p1) / (x*x - 1)
			dx := p0 / pp
			x -= dx
			if math.Abs(dx) < 1e-15 {
				break
			}
		}
		w := 2 / ((1 - x*x) * pp * pp)
		r.Nodes[i] = -x
		r.Nodes[n-1-i] = x
		r.Weights[i] = w
		r.Weights[n-1-i] = w
	}
	return r
}

// Integrate1D integrates f over [a, b] with an n-point rule.
func Integrate1D(f func(float64) float64, a, b float64, n int) float64 {
	r := Gauss(n)
	half := 0.5 * (b - a)
	mid := 0.5 * (a + b)
	var sum float64
	for i, x := range r.Nodes {
		sum += r.Weights[i] * f(mid+half*x)
	}
	return half * sum
}

// Integrate2D integrates f over [ax,bx] x [ay,by] with a tensor-product rule
// of nx x ny points.
func Integrate2D(f func(x, y float64) float64, ax, bx, ay, by float64, nx, ny int) float64 {
	rx := Gauss(nx)
	ry := Gauss(ny)
	hx, mx := 0.5*(bx-ax), 0.5*(ax+bx)
	hy, my := 0.5*(by-ay), 0.5*(ay+by)
	var sum float64
	for i, xi := range rx.Nodes {
		x := mx + hx*xi
		var inner float64
		for j, yj := range ry.Nodes {
			inner += ry.Weights[j] * f(x, my+hy*yj)
		}
		sum += rx.Weights[i] * inner
	}
	return hx * hy * sum
}

// Integrate4D integrates f over the product of two rectangles with a
// tensor-product rule of n points per dimension. It is used only as a
// brute-force reference in tests (the production path uses closed forms for
// the inner 2-D integral).
func Integrate4D(f func(x, y, xp, yp float64) float64,
	ax, bx, ay, by, axp, bxp, ayp, byp float64, n int) float64 {
	return Integrate2D(func(x, y float64) float64 {
		return Integrate2D(func(xp, yp float64) float64 {
			return f(x, y, xp, yp)
		}, axp, bxp, ayp, byp, n, n)
	}, ax, bx, ay, by, n, n)
}

// FillMapped writes the n mapped nodes and weights for [a, b] into
// xs[:n] and ws[:n] without allocating. xs and ws must have length >= n.
func FillMapped(n int, a, b float64, xs, ws []float64) {
	r := Gauss(n)
	half := 0.5 * (b - a)
	mid := 0.5 * (a + b)
	for i, x := range r.Nodes {
		xs[i] = mid + half*x
		ws[i] = half * r.Weights[i]
	}
}
