package assembly_test

import (
	"fmt"
	"testing"

	"parbem/internal/assembly"
	"parbem/internal/basis"
	"parbem/internal/geom"
	"parbem/internal/mpi"
	"parbem/internal/par"
)

// TestTemplateLookupsPerFill pins, by count, what the template fill's block
// memo is for: the table lookups of one fill of the bus — near pairs less
// those their block's memo served — and the classes integrated, at one
// worker. At 2 and 4 workers the fill's workers share the memo's atomic
// cells: the classes are the same, a cell two workers miss at once is
// looked up by both (so the lookups lie between the one-worker count and
// the near pairs), and P's packed lower triangle is bitwise FillSerial's. So
// is the distributed fill's at 2, 4 and 10 ranks, each rank with a table and
// a memo of its own.
func TestTemplateLookupsPerFill(t *testing.T) {
	for _, c := range []struct {
		n                int
		lookups, classes int64
	}{
		{8, 15988, 6249},
		{16, 44256, 19447},
		{24, 90875, 49400},
	} {
		t.Run(fmt.Sprintf("bus%dx%d", c.n, c.n), func(t *testing.T) {
			if c.n > 16 && testing.Short() {
				t.Skip("a 24x24 bus fill, six times")
			}
			set := basis.Build(geom.DefaultBus(c.n, c.n).Build(), basis.BuilderOptions{})
			in := assembly.NewIntegrator()
			want := assembly.FillSerial(set, in)
			s := in.FillStats()
			t.Logf("%d near pairs, %d looked up, %d classes, %d by the cursor", s.PairsNear, s.PairsNear-s.PairMemo, s.ClassesIntegrated, s.PairSequential)
			if looked := s.PairsNear - s.PairMemo; looked != c.lookups || s.ClassesIntegrated != c.classes {
				t.Errorf("one worker: %d lookups, %d classes; want %d, %d", looked, s.ClassesIntegrated, c.lookups, c.classes)
			}
			check := func(name string, got []float64) {
				t.Helper()
				for i, v := range want.Data {
					if got[i] != v {
						t.Fatalf("%s: P[%d] = %b, serial %b", name, i, got[i], v)
					}
				}
			}
			for _, w := range []int{2, 4} {
				in := assembly.NewIntegrator()
				check(fmt.Sprintf("%d workers", w), par.FillSym(set, in, par.Options{Workers: w}).Data)
				p := in.FillStats()
				if looked := p.PairsNear - p.PairMemo; p.ClassesIntegrated != s.ClassesIntegrated || p.PairsNear != s.PairsNear ||
					looked < c.lookups || looked > p.PairsNear {
					t.Errorf("%d workers: %d classes, %d lookups of %d near pairs; one worker %d, %d of %d",
						w, p.ClassesIntegrated, looked, p.PairsNear, s.ClassesIntegrated, c.lookups, s.PairsNear)
				}
			}
			for _, ranks := range []int{2, 4, 10} {
				in := assembly.NewIntegrator()
				check(fmt.Sprintf("mpi %d ranks", ranks), mpi.FillDistributed(set, in, mpi.NewNetwork(ranks)).Data)
				if d := in.FillStats(); d.PairsNear != s.PairsNear || d.PairMemo <= 0 || d.PairMemo > d.PairsNear {
					t.Errorf("%d ranks: %d near pairs, %d from memos; one worker %d", ranks, d.PairsNear, d.PairMemo, s.PairsNear)
				}
			}
		})
	}
}
