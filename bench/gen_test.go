package main

import (
	"bytes"
	"reflect"
	"testing"
)

func TestSweepSequenceIsSeeded(t *testing.T) {
	a, b := sweepSequence(3, 200), sweepSequence(3, 200)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different H sequence")
	}
	if reflect.DeepEqual(a, sweepSequence(4, 200)) {
		t.Fatal("different seeds, same H sequence")
	}
	seen := map[float64]int{}
	for i, h := range a {
		if i > 0 && h == a[i-1] {
			t.Fatalf("H repeats at %d: the op would be a cache hit", i)
		}
		if h == sweepColdH {
			t.Fatalf("the cold point's H is drawn at %d", i)
		}
		seen[h]++
	}
	// Every H equally often: the median op time must not depend on the seed.
	for _, h := range sweepHs {
		if seen[h] != len(a)/len(sweepHs) {
			t.Fatalf("H %g drawn %d times of %d", h, seen[h], len(a))
		}
	}
}

func TestServeStreamIsSeeded(t *testing.T) {
	const n = 400
	a, b, c := newServeStream(5), newServeStream(5), newServeStream(6)
	for i := 0; i < n; i++ {
		b.get(i) // b grows a block at a time, a in one go: the i-th request depends on seed and i only
	}
	same := true
	for i := n - 1; i >= 0; i-- {
		ra, rb := a.get(i), b.get(i)
		if !bytes.Equal(ra.body, rb.body) || ra.class != rb.class {
			t.Fatalf("same seed, request %d differs", i)
		}
		same = same && bytes.Equal(ra.body, c.get(i).body)
	}
	if same {
		t.Fatal("different seeds, same request stream")
	}
}

func TestServeStreamMix(t *testing.T) {
	s := newServeStream(1)
	block := 0
	for _, sh := range blockShares {
		block += sh.n * len(serveFamilies)
	}
	const blocks = 5
	last := map[int][]byte{}
	for f, w := range s.warmups() {
		last[f] = w.body
	}
	seenBody := map[string]bool{}
	for _, b := range last {
		seenBody[string(b)] = true
	}
	for bl := 0; bl < blocks; bl++ {
		count := map[string]int{}
		for i := bl * block; i < (bl+1)*block; i++ {
			r := s.get(i)
			count[r.class]++
			switch r.class {
			case classHit:
				if !bytes.Equal(r.body, last[r.family]) {
					t.Fatalf("request %d: a hit is not a byte-identical repeat", i)
				}
			case classVariant, classCold:
				if bytes.Equal(r.body, last[r.family]) {
					t.Fatalf("request %d: a %s repeats the last request", i, r.class)
				}
				if r.class == classCold && seenBody[string(r.body)] {
					t.Fatalf("request %d: a cold request was seen before", i)
				}
			}
			last[r.family] = r.body
			seenBody[string(r.body)] = true
		}
		// Exact shares in every block: 30% hit, 50% variant, 20% cold.
		if count[classHit]*10 != 3*block || count[classVariant]*10 != 5*block || count[classCold]*10 != 2*block {
			t.Fatalf("block %d mix %v", bl, count)
		}
	}
}
