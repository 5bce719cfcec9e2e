package assembly

import (
	"sync"
	"testing"

	"parbem/internal/geom"
	"parbem/internal/kernel"
)

// everyPair is sweepPanels' keep for the whole upper triangle.
func everyPair(i, j int) bool { return true }

// sweepPanels asks f for every pair (i, j), i <= j, of its n panels that
// keep accepts, in row order, with one cursor, and returns the values and
// the sweep's counts.
func sweepPanels(f *Interned, n int, keep func(i, j int) bool) ([]float64, FillStats) {
	var st FillStats
	var vals []float64
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			if keep(i, j) {
				vals = append(vals, f.PairInto(i, j, &st))
			}
		}
	}
	return vals, st
}

// TestCursorServesRefills pins, by count, what the arrival-order log is
// for: one worker sweeps the upper triangle of a panelization three times
// over one table — a first fill, a refill, and the cross-conductor pairs
// alone, which is what a geometry variant asks of a table that has seen
// its H before — and the share of near pairs its cursor serves without
// touching the index repeats exactly. Every value is bit for bit the one a
// private table gives.
func TestCursorServesRefills(t *testing.T) {
	cross := geom.DefaultCrossingPair()
	for _, c := range []struct {
		name                  string
		st                    *geom.Structure
		edge                  float64
		first, refill, across int64 // pairs served by the cursor, per sweep
	}{
		{"crossing", cross.Build(), 0.4e-6, 47092, 70953, 47050},             // 38.9%, 58.5% of 121 210; 74.2% of 63 384
		{"bus3x3", geom.DefaultBus(3, 3).Build(), 1e-6, 12229, 12756, 10839}, // 46.8%, 48.9% of 26 106; 50.0% of 21 660
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := kernel.DefaultConfig()
			panels := c.st.Panelize(c.edge)
			n := len(panels)
			other := func(i, j int) bool { return panels[i].Conductor != panels[j].Conductor }
			want, _ := sweepPanels(InternPanels(cfg, nil, panels), n, everyPair)
			wantAcross, _ := sweepPanels(InternPanels(cfg, nil, panels), n, other)

			f := InternPanels(cfg, NewPairCache(0), panels)
			v1, s1 := sweepPanels(f, n, everyPair)
			v2, s2 := sweepPanels(f, n, everyPair)
			v3, s3 := sweepPanels(f, n, other)
			for k, w := range want {
				if v1[k] != w || v2[k] != w {
					t.Fatalf("pair %d: %g, then %g, private table %g", k, v1[k], v2[k], w)
				}
			}
			for k, w := range wantAcross {
				if v3[k] != w {
					t.Fatalf("cross-conductor pair %d: %g, private table %g", k, v3[k], w)
				}
			}
			if s2.ClassesIntegrated != 0 || s3.ClassesIntegrated != 0 || s2.PairsNear != s1.PairsNear {
				t.Fatalf("refills integrated %d and %d classes", s2.ClassesIntegrated, s3.ClassesIntegrated)
			}
			share := func(s FillStats) float64 { return float64(s.PairSequential) / float64(s.PairsNear) }
			t.Logf("%d panels, %d classes: cursor served %d of %d near pairs (%.3f) on the first fill, %d (%.3f) on the refill, %d of %d (%.3f) across conductors",
				n, s1.ClassesIntegrated, s1.PairSequential, s1.PairsNear, share(s1),
				s2.PairSequential, share(s2), s3.PairSequential, s3.PairsNear, share(s3))
			if s1.PairSequential != c.first || s2.PairSequential != c.refill || s3.PairSequential != c.across {
				t.Errorf("cursor served %d, %d, %d pairs; want %d, %d, %d",
					s1.PairSequential, s2.PairSequential, s3.PairSequential, c.first, c.refill, c.across)
			}
		})
	}
}

// TestGenerationsRollUnderReaders sweeps one Interned from four goroutines
// over a table bounded to a fraction of its classes, so that generations
// are installed while lookups on the old ones are in flight: every value
// is the serial private-table one, the table never holds more than its
// bound, and when the sweeps are over it accounts for one generation. Run
// it under -race: it is the proof that lookups need no lock.
func TestGenerationsRollUnderReaders(t *testing.T) {
	cfg := kernel.DefaultConfig()
	panels := geom.DefaultBus(3, 3).Build().Panelize(1e-6)
	n := len(panels)
	want, ws := sweepPanels(InternPanels(cfg, nil, panels), n, everyPair)
	if ws.ClassesIntegrated < 2*pairPage {
		t.Fatalf("%d classes: the smallest table would roll less than twice", ws.ClassesIntegrated)
	}

	pc := NewPairCache(1)
	f := InternPanels(cfg, pc, panels)
	var wg sync.WaitGroup
	stats := make([]FillStats, 4)
	for w := range stats {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var st FillStats
			k := 0
			for i := 0; i < n; i++ {
				for j := i; j < n; j++ {
					if got := f.PairInto(i, j, &st); got != want[k] {
						t.Errorf("worker %d, pair (%d, %d): %g, serial private table %g", w, i, j, got, want[k])
						return
					}
					k++
				}
				if l := pc.Len(); l > pairPage {
					t.Errorf("table holds %d entries, bound %d", l, pairPage)
					return
				}
			}
			stats[w].Add(st)
		}()
	}
	wg.Wait()
	var sum FillStats
	for _, st := range stats {
		sum.Add(st)
	}
	if sum.ClassesIntegrated <= ws.ClassesIntegrated {
		t.Errorf("%d classes integrated by four sweeps of %d: no generation was replaced", sum.ClassesIntegrated, ws.ClassesIntegrated)
	}
	page, index := int64(pairPage*40), int64(4*len(*pc.gen.Load().index.Load()))
	if got := pc.Bytes(); got != 8+page+index {
		t.Errorf("table accounts for %d bytes, its one generation holds %d (directory) + %d (page) + %d (index)", got, 8, page, index)
	}
	if stats[0].cur != (pairCursor{}) {
		t.Error("FillStats.Add copied a cursor into an aggregate")
	}
}

// BenchmarkPairLookup times one table lookup where the cursor serves it
// (keys in the order of the log), where the index does (keys in an order
// the log does not have), and over a refill of the crossing pair's upper
// triangle — far gate, key and lookup, the mix of the two that a served
// variant sees.
func BenchmarkPairLookup(b *testing.B) {
	cfg := kernel.DefaultConfig()
	cross := geom.DefaultCrossingPair()
	panels := cross.Build().Panelize(0.4e-6)
	n := len(panels)
	pc := NewPairCache(0)
	f := InternPanels(cfg, pc, panels)
	_, first := sweepPanels(f, n, everyPair)
	g := pc.gen.Load()
	classes := g.n.Load()

	b.Run("cursor", func(b *testing.B) {
		var st FillStats
		p := uint32(0)
		for i := 0; i < b.N; i++ {
			pc.get(&g.entry(p).key, &st)
			if p++; p == classes {
				p = 0
			}
		}
		if st.PairSequential < int64(b.N)-int64(b.N)/int64(classes)-1 {
			b.Fatalf("%d of %d lookups by cursor", st.PairSequential, b.N)
		}
	})
	b.Run("index", func(b *testing.B) {
		var st FillStats
		p := uint32(0)
		for i := 0; i < b.N; i++ {
			// A stride coprime to the class count, far from the cursor.
			p = (p + 7919) % classes
			pc.get(&g.entry(p).key, &st)
		}
		if st.PairSequential != 0 {
			b.Fatalf("%d lookups by cursor", st.PairSequential)
		}
	})
	b.Run("refill", func(b *testing.B) {
		var st FillStats
		for r := 0; r < b.N; r++ {
			for i := 0; i < n; i++ {
				for j := i; j < n; j++ {
					f.PairInto(i, j, &st)
				}
			}
		}
		if st.ClassesIntegrated != 0 {
			b.Fatalf("refill integrated %d classes", st.ClassesIntegrated)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(first.PairsNear+first.PairsFar), "ns/pair")
		b.ReportMetric(float64(st.PairSequential)/float64(st.PairsNear), "sequential")
	})
}
