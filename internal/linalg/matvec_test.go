package linalg

import (
	"math/rand"
	"testing"
)

func randDense(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestGMRESWorkspaceReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 40
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, rng.NormFloat64()/float64(n))
		}
		a.Add(i, i, 4)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	ws := newSpace(n, 20)
	var first GMRESResult
	for rep := 0; rep < 3; rep++ {
		x := make([]float64, n)
		res, err := GMRESWith(ws, denseOp{a}, x, b, GMRESOptions{Tol: 1e-10, Restart: 20})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("rep %d did not converge", rep)
		}
		if rep == 0 {
			first = res
		} else if res.Iterations != first.Iterations || res.Residual != first.Residual {
			t.Fatalf("workspace reuse changed the solve: rep %d %+v vs %+v", rep, res, first)
		}
	}

	// Steady-state solves through a warm workspace must not allocate.
	var op Matvec = denseOp{a}
	x := make([]float64, n)
	if allocs := testing.AllocsPerRun(10, func() {
		for i := range x {
			x[i] = 0
		}
		if _, err := GMRESWith(ws, op, x, b, GMRESOptions{Tol: 1e-10, Restart: 20}); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("GMRESWith allocates %.0f objects per warm solve", allocs)
	}
	// Nor do solves in a space that is kept: once its ring is full every
	// direction goes into a slot that exists.
	ws.Reset(n, 4)
	solve := func() {
		for i := range x {
			x[i] = 0
		}
		if res, err := ws.Solve(op, x, b, GMRESOptions{Tol: 1e-10}); err != nil || !res.Converged {
			t.Fatal(res, err)
		}
	}
	solve()
	if allocs := testing.AllocsPerRun(10, solve); allocs != 0 {
		t.Fatalf("Solve in a kept space allocates %.0f objects", allocs)
	}
}

var benchSink float64

func BenchmarkDot(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 4096
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	b.SetBytes(int64(16 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += Dot(x, y)
	}
}

func BenchmarkAxpy(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	n := 4096
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.SetBytes(int64(24 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Axpy(1e-9, x, y)
	}
}

func BenchmarkMulVec(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	n := 512
	m := randDense(rng, n, n)
	x := make([]float64, n)
	dst := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVec(dst, x)
	}
}

func BenchmarkGMRESWarmWorkspace(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	n := 200
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, rng.NormFloat64()/float64(n))
		}
		a.Add(i, i, 4)
	}
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	ws := newSpace(n, 50)
	x := make([]float64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range x {
			x[j] = 0
		}
		if _, err := GMRESWith(ws, denseOp{a}, x, rhs, GMRESOptions{Tol: 1e-8}); err != nil {
			b.Fatal(err)
		}
	}
}
