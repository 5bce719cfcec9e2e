package assembly_test

import (
	"fmt"
	"testing"
	"time"

	"parbem/internal/assembly"
	"parbem/internal/basis"
	"parbem/internal/geom"
	"parbem/internal/mpi"
	"parbem/internal/par"
)

// TestFillBitwiseAcrossBackends: a class value is a pure function of its
// key and row-aligned chunks never split the sum behind an entry of P, so
// every backend, partition and worker count fills the same bits of P's
// packed lower triangle.
func TestFillBitwiseAcrossBackends(t *testing.T) {
	set := basis.Build(geom.DefaultBus(4, 4).Build(), basis.BuilderOptions{})
	want := assembly.FillSerial(set, assembly.NewIntegrator())
	check := func(name string, got []float64) {
		t.Helper()
		for i, v := range want.Data {
			if got[i] != v {
				t.Fatalf("%s: P[%d] = %b, serial %b", name, i, got[i], v)
			}
		}
	}
	for _, w := range []int{1, 2, 4} {
		P := par.FillSym(set, assembly.NewIntegrator(), par.Options{Workers: w})
		check(fmt.Sprintf("par workers=%d", w), P.Data)
	}
	// Every rank fills from a table of its own, with class ids in the
	// order its partition meets them. The ranks' counters arrive by
	// message: every pair is counted once, and a class more than once only
	// where several ranks need it.
	serial := assembly.NewIntegrator()
	assembly.FillSerial(set, serial)
	s := serial.FillStats()
	for _, ranks := range []int{1, 2, 3, 4, 10} {
		in := assembly.NewIntegrator()
		P := mpi.FillDistributed(set, in, mpi.NewNetwork(ranks))
		check(fmt.Sprintf("mpi %d ranks", ranks), P.Data)
		d := in.FillStats()
		if d.PairsFar != s.PairsFar || d.PairsNear != s.PairsNear {
			t.Errorf("%d ranks counted %d far + %d near pairs, serial %d + %d", ranks, d.PairsFar, d.PairsNear, s.PairsFar, s.PairsNear)
		}
		if d.ClassesIntegrated < s.ClassesIntegrated || d.ClassesIntegrated > int64(ranks)*s.ClassesIntegrated {
			t.Errorf("%d ranks integrated %d classes, one table %d", ranks, d.ClassesIntegrated, s.ClassesIntegrated)
		}
	}
}

// TestIrregularGeometryBookkeeping runs the fill where little repeats
// (the transistor-interconnect structure) and checks by count, not by
// clock, that the class machinery stays cheap there: one lookup per near
// pair, nothing else. Hit ratio and time per pair are logged for the
// reader.
func TestIrregularGeometryBookkeeping(t *testing.T) {
	set := basis.Build(geom.DefaultInterconnect().Build(), basis.BuilderOptions{})
	in := assembly.NewIntegrator()
	in.Pairs = assembly.NewPairCache(0)
	t0 := time.Now()
	assembly.FillSerial(set, in)
	el := time.Since(t0)

	st := in.FillStats()
	pairs := assembly.NumPairs(set.M())
	if st.PairsFar+st.PairsNear != pairs {
		t.Errorf("%d far + %d near pairs, want %d in all", st.PairsFar, st.PairsNear, pairs)
	}
	// One lookup per near pair: a miss if it added a class, else a hit,
	// of which the cursor can have served no more than there were.
	hits := st.PairsNear - st.ClassesIntegrated
	if int64(in.Pairs.Len()) != st.ClassesIntegrated || st.PairSequential > hits {
		t.Errorf("%d entries for %d classes integrated; %d of %d hits by cursor", in.Pairs.Len(), st.ClassesIntegrated, st.PairSequential, hits)
	}
	if per := float64(st.TableBytes) / float64(st.ClassesIntegrated); per > 120 {
		t.Errorf("table holds %.0f bytes per class", per)
	}
	// 10 170 under translations alone.
	if st.ClassesIntegrated > 6500 {
		t.Errorf("%d symmetry classes for %d near pairs, want at most 6500", st.ClassesIntegrated, st.PairsNear)
	}
	t.Logf("interconnect: M = %d, %d pairs (%d far), %d classes for %d near pairs (hit ratio %.2f, %.2f by cursor), %.0f ns/pair, table %d KB",
		set.M(), pairs, st.PairsFar, st.ClassesIntegrated, st.PairsNear,
		float64(hits)/float64(st.PairsNear), float64(st.PairSequential)/float64(st.PairsNear),
		float64(el.Nanoseconds())/float64(pairs), st.TableBytes>>10)
}
