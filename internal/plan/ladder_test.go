package plan

import (
	"testing"

	"parbem/internal/geom"
	"parbem/internal/op"
	"parbem/internal/sched"
)

// busAt is the default m x n bus with layer separation h.
func busAt(m, n int, h float64) *geom.Structure {
	sp := geom.DefaultBus(m, n)
	sp.H = h
	return sp.Build()
}

// TestKrylovLadders pins the solve's mechanism by count, on one worker so
// that any runner reads the same numbers: a cold extraction and a
// rigid-motion variant of it on the dense backend at the default 1e-4
// tolerance. parent is what the per-column restarted GMRES behind
// index-range blocks spent (cold, variant); one search space for every
// column, seeded by the previous variant, behind blocks that follow the
// conductors must stay at or below 0.65x of each. The variant moves one
// layer rigidly, so every block keeps its factor; C stays within the
// Krylov tolerance of a direct solve.
func TestKrylovLadders(t *testing.T) {
	for _, tc := range []struct {
		name       string
		edge       float64
		cold, next *geom.Structure
		parent     [2]int
	}{
		{"crossing", 0.4e-6, crossingAt(0.5e-6), crossingAt(0.35e-6), [2]int{32, 26}},
		{"bus3x3", 1e-6, busAt(3, 3, 1e-6), busAt(3, 3, 0.7e-6), [2]int{97, 79}},
		{"bus4x4", 0.5e-6, busAt(4, 4, 1e-6), busAt(4, 4, 0.8e-6), [2]int{166, 128}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := Options{MaxEdge: tc.edge, Exec: sched.Local(1),
				Pipeline: op.Options{Backend: op.BackendDense}}
			p, err := New(opt)
			if err != nil {
				t.Fatal(err)
			}
			direct := opt
			direct.Pipeline.Direct = true
			for k, st := range []*geom.Structure{tc.cold, tc.next} {
				res, err := p.Extract(st)
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("variant %d: %d panels, %d iterations, %d applications (parent %d iterations)",
					k, res.NumPanels, res.Iterations, res.Applies, tc.parent[k])
				if 100*res.Iterations > 65*tc.parent[k] {
					t.Errorf("variant %d: %d iterations, want at most 0.65x the parent's %d",
						k, res.Iterations, tc.parent[k])
				}
				if e := capError(res.C, fresh(t, st, direct).C); e > 2e-4 {
					t.Errorf("variant %d: C is %.3g from the direct solve's (limit 2e-4)", k, e)
				}
			}
			s := p.Stats()
			blocks := len(p.cur.factors)
			if blocks == 0 || s.FactReused != blocks {
				t.Errorf("rigid-motion variant adopted %d of %d block factors", s.FactReused, blocks)
			}
			if s.WarmStarts != 1 {
				t.Errorf("%d seeded solves, want 1", s.WarmStarts)
			}
		})
	}
}
