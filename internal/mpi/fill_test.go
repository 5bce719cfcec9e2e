package mpi

import (
	"testing"

	"parbem/internal/assembly"
	"parbem/internal/basis"
	"parbem/internal/geom"
	"parbem/internal/linalg"
)

func TestFillDistributedMatchesSerial(t *testing.T) {
	st := geom.DefaultCrossingPair().Build()
	set := basis.Build(st, basis.BuilderOptions{})
	in := assembly.NewIntegrator()
	want := assembly.FillSerial(set, in)

	for _, size := range []int{1, 2, 3, 5, 10} {
		got := FillDistributed(set, in, NewNetwork(size))
		if got == nil {
			t.Fatalf("size=%d: nil result", size)
		}
		if d := linalg.MaxAbsDiff(got.Dense(), want.Dense()); d > tol(want) {
			t.Errorf("size=%d: distributed result differs from serial by %g", size, d)
		}
	}
}

func TestFillDistributedMoreRanksThanWork(t *testing.T) {
	// A tiny set with fewer k-pairs than ranks: some ranks get empty
	// partitions and must still participate in the protocol.
	st := &geom.Structure{
		Name: "plate",
		Conductors: []*geom.Conductor{
			{Name: "a", Boxes: []geom.Box{geom.NewBox(
				geom.Vec3{X: 0, Y: 0, Z: 0}, geom.Vec3{X: 1e-6, Y: 1e-6, Z: 1e-7})}},
		},
	}
	set := basis.Build(st, basis.BuilderOptions{})
	in := assembly.NewIntegrator()
	want := assembly.FillSerial(set, in)
	got := FillDistributed(set, in, NewNetwork(10))
	if d := linalg.MaxAbsDiff(got.Dense(), want.Dense()); d > tol(want) {
		t.Errorf("differs from serial by %g", d)
	}
}

// tol returns the rounding tolerance for comparing fills (accumulation
// order differs across partition boundaries).
func tol(m *linalg.Sym) float64 {
	var scale float64
	for _, v := range m.Data {
		if v > scale {
			scale = v
		} else if -v > scale {
			scale = -v
		}
	}
	return 1e-12 * scale
}

// TestFillDistributedSlabsArePackedRows counts what the ranks of the 16x16
// bus hold and send: each rank's partial is exactly the packed lower rows
// its partition condenses into, the ranks' rows tile P without a gap or an
// overlap, so their lengths sum to N(N+1)/2 = 248 160 — half of the N×N
// slabs whose lower part was zeros — and the distributed P is bitwise the
// serial one's packed lower triangle.
//
// It also records the Section 5.2 work as counts, rank by rank: the ranks'
// far and near pairs sum to the serial fill's, their integrated classes to
// what the caller's integrator is credited, and the bytes the ranks d ≥ 1
// would send the main rank, 8 per entry of their partials, to 8·(N(N+1)/2
// − rank 0's packed rows). Each rank's classes and their max/mean balance
// are logged.
func TestFillDistributedSlabsArePackedRows(t *testing.T) {
	set := basis.Build(geom.DefaultBus(16, 16).Build(), basis.BuilderOptions{})
	n := set.N()
	serial := assembly.NewIntegrator()
	want := assembly.FillSerial(set, serial)
	ser := serial.FillStats()
	for _, size := range []int{1, 2, 4, 10} {
		bounds := rankBounds(set, size)
		total, next, rows0 := 0, 0, 0
		for r := 0; r < size; r++ {
			part := assembly.NewPartial(set, bounds[r], bounds[r+1])
			if rows := linalg.PackedLen(part.RowHi+1) - linalg.PackedLen(part.RowLo); part.RowLo != next || len(part.Data) != rows {
				t.Fatalf("%d ranks, rank %d: rows %d..%d in %d entries; want rows from %d in %d", size, r, part.RowLo, part.RowHi, len(part.Data), next, rows)
			}
			if r == 0 {
				rows0 = len(part.Data)
			}
			next, total = part.RowHi+1, total+len(part.Data)
		}
		if next != n || total != n*(n+1)/2 || total != 248160 {
			t.Errorf("%d ranks: rows up to %d in %d entries; want %d rows in %d", size, next, total, n, 248160)
		}
		in := assembly.NewIntegrator()
		got := FillDistributed(set, in, NewNetwork(size))
		for i, v := range want.Data {
			if got.Data[i] != v {
				t.Fatalf("%d ranks: P[%d] = %b, serial %b", size, i, got.Data[i], v)
			}
		}

		var sum assembly.FillStats
		var sent, most int64
		classes := make([]int64, size)
		P := linalg.NewSym(n)
		for d := 0; d < size; d++ {
			part, st := fillRank(set, in.Cfg, bounds, d, P)
			if d != 0 {
				sent += 8 * int64(len(part.Data))
			}
			sum.Add(st)
			classes[d], most = st.ClassesIntegrated, max(most, st.ClassesIntegrated)
		}
		if sum.PairsFar != ser.PairsFar || sum.PairsNear != ser.PairsNear {
			t.Errorf("%d ranks: %d far + %d near pairs; the serial fill has %d + %d", size, sum.PairsFar, sum.PairsNear, ser.PairsFar, ser.PairsNear)
		}
		if credited := in.FillStats().ClassesIntegrated; sum.ClassesIntegrated != credited {
			t.Errorf("%d ranks: the ranks integrated %d classes; %d credited", size, sum.ClassesIntegrated, credited)
		}
		if wantSent := 8 * int64(n*(n+1)/2-rows0); sent != wantSent {
			t.Errorf("%d ranks: ranks 1..%d send %d bytes; want 8·(N(N+1)/2 − %d) = %d", size, size-1, sent, rows0, wantSent)
		}
		mean := float64(sum.ClassesIntegrated) / float64(size)
		t.Logf("%2d ranks: classes %v (sum %d, serial %d), max/mean %.3f; ranks 1..%d send %d bytes", size, classes, sum.ClassesIntegrated, ser.ClassesIntegrated, float64(most)/mean, size-1, sent)
	}
}
