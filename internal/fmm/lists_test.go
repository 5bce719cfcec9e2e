package fmm

import (
	"math"
	"math/rand"
	"testing"

	"parbem/internal/sched"
)

// TestInteractionListsPartition is the structural invariant of the
// dual-tree traversal: for every target panel, the near CSR row plus the
// M2L lists of its leaf and all the leaf's ancestors must cover every
// source panel exactly once — nothing dropped, nothing double-counted.
func TestInteractionListsPartition(t *testing.T) {
	for _, tc := range []struct {
		m, n     int
		edge     float64
		leafSize int
		theta    float64
	}{
		{3, 3, 1.5e-6, 16, 0.5},
		{3, 3, 1.5e-6, 4, 0.5},
		{4, 4, 1e-6, 16, 0.8},
		{4, 4, 1e-6, 32, 0.3},
		{2, 2, 0.75e-6, 8, 0.5},
	} {
		panels := busPanels(t, tc.m, tc.n, tc.edge)
		op := NewOperator(panels, Options{
			LeafSize: tc.leafSize, Theta: tc.theta, Workers: 1,
		})
		n := len(panels)
		count := make([]int, n)
		for pi := 0; pi < n; pi++ {
			for i := range count {
				count[i] = 0
			}
			// Near sources from the CSR row.
			for _, pj := range op.nearIdx[op.nearOff[pi]:op.nearOff[pi+1]] {
				count[pj]++
			}
			// Far sources: subtree panels of every M2L source of the
			// leaf and its ancestors.
			for id := op.t.leafOf[pi]; id >= 0; id = op.t.nodes[id].parent {
				for _, src := range op.m2lSrc[op.m2lOff[id]:op.m2lOff[id+1]] {
					sn := &op.t.nodes[src]
					for _, pj := range op.t.perm[sn.lo:sn.hi] {
						count[pj]++
					}
				}
			}
			for pj, c := range count {
				if c != 1 {
					t.Fatalf("bus%dx%d leaf=%d theta=%g: target %d sees source %d %d times",
						tc.m, tc.n, tc.leafSize, tc.theta, pi, pj, c)
				}
			}
		}
	}
}

// TestFarFieldMatchesPointSum validates the M2L/L2L/L2P pipeline against
// the exact model it approximates: the near CSR row plus a brute-force
// point-charge sum over every non-near source.
func TestFarFieldMatchesPointSum(t *testing.T) {
	panels := busPanels(t, 8, 8, 0.75e-6)
	n := len(panels)
	op := NewOperator(panels, Options{Workers: 1})
	if len(op.m2lSrc) == 0 {
		t.Fatal("problem too small: no far field to validate")
	}
	rng := rand.New(rand.NewSource(7))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := make([]float64, n)
	op.Apply(got, x)

	inNear := make([]bool, n)
	var num, den float64
	for i := 0; i < n; i++ {
		row := op.nearIdx[op.nearOff[i]:op.nearOff[i+1]]
		val := op.nearVal[op.nearOff[i]:op.nearOff[i+1]]
		var near float64
		for k, pj := range row {
			near += val[k] * x[pj]
			inNear[pj] = true
		}
		var far float64
		for j := 0; j < n; j++ {
			if inNear[j] {
				continue
			}
			far += x[j] * op.areas[j] / op.centers[i].Dist(op.centers[j])
		}
		for _, pj := range row {
			inNear[pj] = false
		}
		want := near + op.scale*op.areas[i]*far
		d := got[i] - want
		num += d * d
		den += want * want
	}
	if rel := math.Sqrt(num / den); rel > 0.01 {
		t.Fatalf("far field rel err %g > 1%%", rel)
	}
}

// TestApplyAllocFree proves the steady-state matvec allocates nothing in
// serial mode, and only constant scheduler bookkeeping when parallel.
func TestApplyAllocFree(t *testing.T) {
	panels := busPanels(t, 4, 4, 1e-6)
	n := len(panels)
	x := make([]float64, n)
	dst := make([]float64, n)
	for i := range x {
		x[i] = 1
	}

	serial := NewOperator(panels, Options{Workers: 1})
	serial.Apply(dst, x) // warm the scratch
	if allocs := testing.AllocsPerRun(10, func() {
		serial.Apply(dst, x)
	}); allocs != 0 {
		t.Fatalf("serial Apply allocates %.0f objects per call", allocs)
	}

	// Parallel mode: per-Map scheduler bookkeeping only — a job, its done
	// channel and, on Local, one goroutine closure per extra worker — for
	// each of Apply's two Map calls, independent of the panel count.
	local := NewOperator(panels, Options{Workers: 2})
	pool := sched.NewPool(4)
	defer pool.Close()
	pooled := NewOperator(panels, Options{Pool: pool})
	for _, tc := range []struct {
		name string
		op   *Operator
	}{{"Workers: 2", local}, {"pooled", pooled}} {
		tc.op.Apply(dst, x)
		allocs := testing.AllocsPerRun(10, func() { tc.op.Apply(dst, x) })
		t.Logf("%s Apply: %.0f objects per call", tc.name, allocs)
		if allocs > 12 {
			t.Errorf("%s Apply allocates %.0f objects per call (want <= 12); the scheduler or the kernel loops started allocating", tc.name, allocs)
		}
	}
}

// TestConcurrentAppliesMatchSerial exercises the scratch overflow path:
// many goroutines applying the same operator concurrently must all get
// the bit-exact serial answer.
func TestConcurrentAppliesMatchSerial(t *testing.T) {
	panels := busPanels(t, 3, 3, 1.5e-6)
	n := len(panels)
	op := NewOperator(panels, Options{Workers: 1})
	rng := rand.New(rand.NewSource(5))
	const g = 8
	xs := make([][]float64, g)
	want := make([][]float64, g)
	for k := 0; k < g; k++ {
		xs[k] = make([]float64, n)
		for i := range xs[k] {
			xs[k][i] = rng.NormFloat64()
		}
		want[k] = make([]float64, n)
		op.Apply(want[k], xs[k])
	}
	got := make([][]float64, g)
	done := make(chan int, g)
	for k := 0; k < g; k++ {
		got[k] = make([]float64, n)
		go func(k int) {
			op.Apply(got[k], xs[k])
			done <- k
		}(k)
	}
	for k := 0; k < g; k++ {
		<-done
	}
	for k := 0; k < g; k++ {
		for i := range got[k] {
			if got[k][i] != want[k][i] {
				t.Fatalf("concurrent Apply %d differs at %d: %g vs %g",
					k, i, got[k][i], want[k][i])
			}
		}
	}
}
