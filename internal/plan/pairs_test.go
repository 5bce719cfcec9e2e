package plan

import (
	"context"
	"testing"

	"parbem/internal/assembly"
	"parbem/internal/linalg"
	"parbem/internal/op"
	"parbem/internal/pfft"
	"parbem/internal/sched"
)

// TestPairTableHistoryBitwise: an exact panel-pair value is a function of
// the pair's symmetry class alone, so the same request returns the same
// bits of C whatever its class table has been through — a table of the
// plan's own, a shared one met cold, the same one warm (nothing left to
// integrate), and one so small that its generations are replaced while the
// build runs — at one worker and at two, on every backend.
func TestPairTableHistoryBitwise(t *testing.T) {
	st := crossingAt(0.5e-6)
	for _, be := range []op.Backend{op.BackendDense, op.BackendFMM, op.BackendPFFT} {
		var want *linalg.Dense
		for _, workers := range []int{1, 2} {
			shared, tiny := assembly.NewPairCache(0), assembly.NewPairCache(1)
			for _, c := range []struct {
				history string
				pairs   *assembly.PairCache
			}{{"private", nil}, {"shared, cold", shared}, {"shared, warm", shared}, {"evicting", tiny}} {
				// (A coarse pfft grid: transforms the race detector gets
				// through in seconds.)
				p, err := New(Options{MaxEdge: 0.5e-6, Pipeline: op.Options{Backend: be, PFFT: &pfft.Options{MaxNodes: 12}},
					Exec: sched.Local(workers), Pairs: c.pairs})
				if err != nil {
					t.Fatal(err)
				}
				res, fill, err := p.ExtractFillCtx(context.Background(), st)
				if err != nil {
					t.Fatalf("%v, %d workers, %s table: %v", be, workers, c.history, err)
				}
				if st := p.Stats(); st.ClassesIntegrated != fill.ClassesIntegrated {
					t.Errorf("%v, %s table: Stats counts %d classes integrated, the call %d", be, c.history, st.ClassesIntegrated, fill.ClassesIntegrated)
				}
				switch {
				case c.history == "shared, warm" && fill.ClassesIntegrated != 0:
					t.Errorf("%v, %d workers: %d classes integrated over a table that held them all", be, workers, fill.ClassesIntegrated)
				case c.history != "shared, warm" && fill.ClassesIntegrated == 0:
					t.Errorf("%v, %d workers, %s table: no class integrated", be, workers, c.history)
				case c.pairs == tiny && be != op.BackendPFFT && fill.ClassesIntegrated <= int64(tiny.Len()):
					// (A precorrection reaches a few grid cells: 169 classes.)
					t.Errorf("%v, %d workers: %d classes integrated, %d in the table at the end: no generation was replaced", be, workers, fill.ClassesIntegrated, tiny.Len())
				}
				t.Logf("%v, %d workers, %s table: %+v", be, workers, c.history, fill)
				if want == nil {
					want = res.C
					continue
				}
				for i, v := range res.C.Data {
					if v != want.Data[i] {
						t.Fatalf("%v, %d workers, %s table: C[%d] = %v, want %v to the bit", be, workers, c.history, i, v, want.Data[i])
					}
				}
			}
		}
	}
}
