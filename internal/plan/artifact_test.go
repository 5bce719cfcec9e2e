package plan

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"sync"
	"testing"

	"parbem/internal/fmm"
	"parbem/internal/geom"
	"parbem/internal/kernel"
	"parbem/internal/linalg"
	"parbem/internal/op"
	"parbem/internal/pfft"
)

// memStore is an in-memory ArtifactStore for tests (the disk-backed one
// lives in internal/artifact and is wired up by internal/serve). It counts
// its lookups, the lookups that found an entry, and its writes.
type memStore struct {
	mu               sync.Mutex
	m                map[string][]byte
	gets, hits, puts int
}

func newMemStore() *memStore { return &memStore{m: map[string][]byte{}} }

func (s *memStore) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gets++
	data, ok := s.m[key]
	if ok {
		s.hits++
	}
	return data, ok
}

func (s *memStore) Put(key string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts++
	s.m[key] = append([]byte(nil), data...)
}

// counts returns the store's lookups, hits and writes so far.
func (s *memStore) counts() (gets, hits, puts int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gets, s.hits, s.puts
}

func (s *memStore) keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ks []string
	for k := range s.m {
		ks = append(ks, k)
	}
	return ks
}

// extractVia runs one cold extraction through a fresh plan wired to the
// given store.
func extractVia(t *testing.T, store ArtifactStore, pipe op.Options, h float64) *Result {
	t.Helper()
	p, err := New(Options{MaxEdge: 0.5e-6, Pipeline: pipe, Artifacts: store})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Extract(crossingAt(h))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPlanArtifactRoundTrip pins the persistence contract per backend:
// a fresh plan (no in-memory state, as after a process restart) wired
// to a store warmed by another plan adopts the near-field payload and
// factorizes its near blocks afresh, its result matches the cold build to
// 1e-12, and the reuse flags report just that. The store holds one entry
// per family, the near field: the dense GMRES row is the one dense case
// with block factors to persist, and none are.
func TestPlanArtifactRoundTrip(t *testing.T) {
	backends := []struct {
		name string
		pipe op.Options
	}{
		{"dense", op.Options{Backend: op.BackendDense, Direct: true}},
		{"dense gmres", op.Options{Backend: op.BackendDense, Tol: 1e-10}},
		{"fmm", op.Options{Backend: op.BackendFMM, Tol: 1e-10, FMM: &fmm.Options{Workers: 1}}},
		{"pfft", op.Options{Backend: op.BackendPFFT, Tol: 1e-10,
			PFFT: &pfft.Options{Workers: 1}}},
	}
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			store := newMemStore()
			cold := extractVia(t, store, be.pipe, 0.5e-6)
			if cold.Reused.NearField {
				t.Error("cold build claims near-field reuse")
			}
			if ks := store.keys(); len(ks) != 1 || !strings.HasSuffix(ks[0], nearSuffix) {
				t.Fatalf("cold build stored %q, want one near-field key", ks)
			}
			warm := extractVia(t, store, be.pipe, 0.5e-6)
			if !warm.Reused.NearField || warm.Reused.Factorization {
				t.Errorf("restarted plan reused %+v, want the near field alone", warm.Reused)
			}
			if e := capError(warm.C, cold.C); e > 1e-12 {
				t.Errorf("artifact-adopted result deviates by %.3g", e)
			}
			if ks := store.keys(); len(ks) != 1 {
				t.Errorf("restarted plan left %d keys, want 1", len(ks))
			}
		})
	}
}

// TestPlanArtifactStats counts the store's own traffic: a cold build looks
// its family's near field up once, misses and writes it; a restarted plan
// looks it up once, hits and writes nothing.
func TestPlanArtifactStats(t *testing.T) {
	store := newMemStore()
	pipe := op.Options{Backend: op.BackendFMM, Tol: 1e-8, FMM: &fmm.Options{Workers: 1}}
	extractVia(t, store, pipe, 0.5e-6)
	if gets, hits, puts := store.counts(); gets != 1 || hits != 0 || puts != 1 {
		t.Errorf("cold build: %d gets, %d hits, %d puts, want 1, 0, 1", gets, hits, puts)
	}
	extractVia(t, store, pipe, 0.5e-6)
	if gets, hits, puts := store.counts(); gets != 2 || hits != 1 || puts != 1 {
		t.Errorf("after a restart: %d gets, %d hits, %d puts, want 2, 1, 1", gets, hits, puts)
	}
}

// TestPlanArtifactCorruptPayload pins skip-and-recompute at the decode
// layer: payloads that fail structural validation are ignored and the
// build integrates fresh, still producing correct results.
func TestPlanArtifactCorruptPayload(t *testing.T) {
	pipe := op.Options{Backend: op.BackendPFFT, Tol: 1e-10, PFFT: &pfft.Options{Workers: 1}}
	store := newMemStore()
	cold := extractVia(t, store, pipe, 0.5e-6)

	// Truncate every payload to a prefix: decode must reject the shape.
	store.mu.Lock()
	for k, v := range store.m {
		store.m[k] = v[:len(v)/3]
	}
	store.mu.Unlock()
	warm := extractVia(t, store, pipe, 0.5e-6)
	if warm.Reused.NearField {
		t.Error("truncated payload adopted")
	}
	if e := capError(warm.C, cold.C); e > 1e-12 {
		t.Errorf("recomputed result deviates by %.3g", e)
	}
}

// TestPlanArtifactKeySeparation asserts distinct geometries and
// distinct options never share a family hash, and identical inputs do.
func TestPlanArtifactKeySeparation(t *testing.T) {
	p, err := New(Options{MaxEdge: 0.5e-6, Artifacts: newMemStore()})
	if err != nil {
		t.Fatal(err)
	}
	stA, stB := crossingAt(0.5e-6), crossingAt(0.6e-6)
	kA := p.artifactKey(stA, op.BackendDense, nil, nil)
	kA2 := p.artifactKey(stA, op.BackendDense, nil, nil)
	kB := p.artifactKey(stB, op.BackendDense, nil, nil)
	if kA == "" || kA != kA2 {
		t.Fatalf("identical inputs: %q vs %q", kA, kA2)
	}
	if kA == kB {
		t.Error("distinct geometries share a family hash")
	}
	fo := fmm.Options{Theta: 0.5}
	kF := p.artifactKey(stA, op.BackendFMM, &fo, nil)
	if kF == kA {
		t.Error("distinct backends share a family hash")
	}
	fo2 := fo
	fo2.Theta = 0.7
	if k := p.artifactKey(stA, op.BackendFMM, &fo2, nil); k == kF {
		t.Error("distinct fmm tuning shares a family hash")
	}
	for _, k := range []string{kA, kF} {
		if strings.ToLower(k) != k {
			t.Errorf("key %q not lowercase hex", k)
		}
	}
}

// TestArtifactKeyCarriesFingerprint: the artifact key reads the kernel
// configuration through its fingerprint alone. A configuration that
// differs in QuadOrder, DisableApprox or arithmetic version is another
// key; a literal default one is the plan's key.
func TestArtifactKeyCarriesFingerprint(t *testing.T) {
	st := crossingAt(0.5e-6)
	key := func(cfg *kernel.Config, arith uint64) string {
		return artifactHash(artifactSchema, 0.5e-6, cfg.Fingerprint(arith), op.BackendDense, nil, nil, st)
	}
	p, err := New(Options{MaxEdge: 0.5e-6, Artifacts: newMemStore()})
	if err != nil {
		t.Fatal(err)
	}
	def := p.artifactKey(st, op.BackendDense, nil, nil)
	if k := key(&kernel.Config{QuadOrder: 4}, kernel.ArithVersion); k != def {
		t.Fatalf("a literal default configuration keys %s, the plan %s", k, def)
	}
	for name, k := range map[string]string{
		"QuadOrder 5":       key(&kernel.Config{QuadOrder: 5}, kernel.ArithVersion),
		"DisableApprox":     key(&kernel.Config{QuadOrder: 4, DisableApprox: true}, kernel.ArithVersion),
		"arithmetic before": key(kernel.DefaultConfig(), kernel.ArithVersion-1),
	} {
		if k == def {
			t.Errorf("%s shares the default configuration's artifact key", name)
		}
	}
}

// TestPlanArtifactLengthMismatchDegrades drops one trailing float from
// every payload and asserts the shape validation refuses to adopt it.
// (Value-level integrity — bit flips inside structurally valid floats —
// is the CRC-framed disk store's job, covered in internal/artifact.)
func TestPlanArtifactLengthMismatchDegrades(t *testing.T) {
	store := newMemStore()
	pipe := op.Options{Backend: op.BackendFMM, Tol: 1e-8, FMM: &fmm.Options{Workers: 1}}
	extractVia(t, store, pipe, 0.5e-6)
	store.mu.Lock()
	for k, v := range store.m {
		if len(v) > 8 {
			store.m[k] = v[:len(v)-8]
		}
	}
	store.mu.Unlock()
	warm := extractVia(t, store, pipe, 0.5e-6)
	if warm.Reused.NearField {
		t.Error("length-mismatched payload adopted")
	}
}

// TestPlanArtifactOldArithmeticNeverAdopted plants, under the family key
// an older build computed for the same request, a well-formed near-field
// artifact of the right shape with wrong values — what a disk store kept
// across an upgrade would hand back. The older builds: the one from before kernel.ArithVersion ("pba1"
// and its standard-provider tag); the "pba2" ones, whose near-field values
// were integrated at each pair's absolute coordinates where this build
// stores symmetry-class values; the "pba3" ones, which encoded the kernel
// configuration field by field; the "pba4" ones, whose block factors were
// full Cholesky matrices; the "pba5" ones, which hashed the permittivity,
// the fmm leaf size and the pfft grid pitch; the "pba6" ones, whose dense
// near field was the full matrix; and one of today's schema
// whose kernel arithmetic was the version before this one. The plan must
// miss the entry, integrate afresh and store under its own key; the stale
// entry is never read.
func TestPlanArtifactOldArithmeticNeverAdopted(t *testing.T) {
	pipe := op.Options{Backend: op.BackendDense, Direct: true}
	st := crossingAt(0.5e-6)
	clean := newMemStore()
	cold := extractVia(t, clean, pipe, 0.5e-6)

	fp := kernel.DefaultConfig().Fingerprint(kernel.ArithVersion)
	for _, old := range []struct {
		name   string
		schema []byte
		fp     uint64
	}{
		{"pba1", []byte{'p', 'b', 'a', '1', 0}, fp},
		{"pba2", []byte{'p', 'b', 'a', '2', kernel.ArithVersion}, fp},
		{"pba3", []byte{'p', 'b', 'a', '3', kernel.ArithVersion}, fp},
		{"pba4", []byte("pba4"), fp},
		{"pba5", []byte("pba5"), fp},
		{"pba6", []byte("pba6"), fp},
		{"arithmetic before", artifactSchema, kernel.DefaultConfig().Fingerprint(kernel.ArithVersion - 1)},
	} {
		p, err := New(Options{MaxEdge: 0.5e-6, Pipeline: pipe, Artifacts: newMemStore()})
		if err != nil {
			t.Fatal(err)
		}
		key := p.artifactKey(st, op.BackendDense, nil, nil)
		oldKey := artifactHash(old.schema, 0.5e-6, old.fp, op.BackendDense, nil, nil, st)
		if oldKey == key {
			t.Fatalf("%s: old key %q, current key %q: want two distinct keys", old.name, oldKey, key)
		}
		payload, found := clean.Get(key + nearSuffix)
		if !found {
			t.Fatal("cold build stored no near-field artifact under the current key")
		}
		stale := append([]byte(nil), payload...)
		for i := len(stale) - 8; i >= denseHeader; i -= 8 { // every value doubled: adoption would show in C
			v := math.Float64frombits(binary.LittleEndian.Uint64(stale[i:]))
			binary.LittleEndian.PutUint64(stale[i:], math.Float64bits(2*v))
		}
		store := newMemStore()
		store.Put(oldKey+nearSuffix, stale)
		_, _, planted := store.counts()

		p2, err := New(Options{MaxEdge: 0.5e-6, Pipeline: pipe, Artifacts: store})
		if err != nil {
			t.Fatal(err)
		}
		res, err := p2.Extract(st)
		if err != nil {
			t.Fatal(err)
		}
		if gets, hits, puts := store.counts(); gets == 0 || hits != 0 || puts != planted+1 {
			t.Errorf("%s: %d gets, %d hits, %d puts over a store of old artifacts, want misses and one put", old.name, gets, hits, puts-planted)
		}
		if res.Reused.NearField {
			t.Errorf("%s: near field reported as reused", old.name)
		}
		if e := capError(res.C, cold.C); e != 0 {
			t.Errorf("%s: result differs from a clean cold build by %.3g", old.name, e)
		}
		if _, found := store.Get(key + nearSuffix); !found {
			t.Errorf("%s: fresh build was not stored under the current key", old.name)
		}
	}
}

// TestPlanArtifactImplausibleValuesNeverAdopted plants, under the family's
// own key, a near field of the right shape that this build does not
// produce — NaNs on every backend, or the full matrix a "pba6" dense build
// shipped — as a corrupted disk could hand back. The plan must adopt
// nothing (its stats are an empty store's), build afresh, return C bitwise
// equal to a build without a store and store the good payload over the
// bad one.
func TestPlanArtifactImplausibleValuesNeverAdopted(t *testing.T) {
	dense := op.Options{Backend: op.BackendDense, Direct: true}
	denseNaN := func(b []byte, n int) []byte {
		d := decodeDenseArtifact(b, n)
		for i := range d.Data {
			d.Data[i] = math.NaN()
		}
		return encodeDenseArtifact(d)
	}
	for _, tc := range []struct {
		name    string
		pipe    op.Options
		adopted func(b []byte, n int) bool
		spoil   func(b []byte, n int) []byte
	}{
		{"nan", dense, func(b []byte, n int) bool { return decodeDenseArtifact(b, n) != nil }, denseNaN},
		{"full matrix", dense, func(b []byte, n int) bool { return decodeDenseArtifact(b, n) != nil },
			func(b []byte, n int) []byte { return fullMatrixPayload(decodeDenseArtifact(b, n)) }},
		{"fmm nan", op.Options{Backend: op.BackendFMM, Tol: 1e-8, FMM: &fmm.Options{Workers: 1}},
			func(b []byte, _ int) bool { return decodeFMMNearArtifact(b) != nil },
			func(b []byte, _ int) []byte {
				v := decodeFMMNearArtifact(b)
				for i := range v {
					v[i] = math.NaN()
				}
				return encodeFMMNearArtifact(v)
			}},
		{"pfft nan", op.Options{Backend: op.BackendPFFT, Tol: 1e-8, PFFT: &pfft.Options{Workers: 1}},
			func(b []byte, n int) bool { return decodePFFTNearArtifact(b, n) != nil },
			func(b []byte, n int) []byte {
				a := decodePFFTNearArtifact(b, n)
				for i := range a.Val {
					a.Val[i], a.Exact[i] = math.NaN(), math.NaN()
				}
				return encodePFFTNearArtifact(a)
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := crossingAt(0.5e-6)
			plain := extractVia(t, nil, tc.pipe, 0.5e-6)
			n := len(plain.Panels)
			clean := newMemStore()
			p, err := New(Options{MaxEdge: 0.5e-6, Pipeline: tc.pipe, Artifacts: clean})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.Extract(st); err != nil {
				t.Fatal(err)
			}
			cold := p.Stats() // what an empty store costs
			var key string
			for _, k := range clean.keys() {
				if strings.HasSuffix(k, nearSuffix) {
					key = k
				}
			}
			good, found := clean.Get(key)
			if !found {
				t.Fatal("cold build stored no near-field artifact")
			}
			bad := tc.spoil(append([]byte(nil), good...), n)
			if tc.adopted(bad, n) {
				t.Fatal("the decoder adopts the spoiled payload")
			}
			store := newMemStore()
			store.Put(key, bad)
			p, err = New(Options{MaxEdge: 0.5e-6, Pipeline: tc.pipe, Artifacts: store})
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.Extract(st)
			if err != nil {
				t.Fatal(err)
			}
			if s := p.Stats(); s != cold || res.Reused.NearField {
				t.Errorf("stats %+v, near field reused %v: want an empty store's %+v", s, res.Reused.NearField, cold)
			}
			for i, v := range res.C.Data {
				if math.Float64bits(v) != math.Float64bits(plain.C.Data[i]) {
					t.Fatalf("C[%d] = %v, %v without a store", i, v, plain.C.Data[i])
				}
			}
			if data, _ := store.Get(key); !tc.adopted(data, n) {
				t.Error("the fresh build did not replace the spoiled payload")
			}
		})
	}
}

// TestPlanArtifactRefusedPayloadReplaced plants, under the family's own
// key, a near field the decoder accepts and the operator refuses in part
// or whole: an fmm value array one value short of the layout, and a pfft
// payload whose last row is one entry longer than the rebuilt row. The
// first restart integrates what it refused, returns C bitwise equal to a
// build without a store and writes its near field over the planted one,
// once; the second restart adopts the whole payload, integrating no class
// and writing nothing.
func TestPlanArtifactRefusedPayloadReplaced(t *testing.T) {
	for _, tc := range []struct {
		name  string
		pipe  op.Options
		spoil func(b []byte, n int) []byte
	}{
		{"fmm one value short", op.Options{Backend: op.BackendFMM, Tol: 1e-8, FMM: &fmm.Options{Workers: 1}},
			func(b []byte, _ int) []byte {
				v := decodeFMMNearArtifact(b)
				return encodeFMMNearArtifact(v[:len(v)-1])
			}},
		{"pfft one wrong row length", op.Options{Backend: op.BackendPFFT, Tol: 1e-8, PFFT: &pfft.Options{Workers: 1}},
			func(b []byte, n int) []byte {
				a := decodePFFTNearArtifact(b, n)
				a.RowLen[n-1]++
				a.Val, a.Exact = append(a.Val, 0), append(a.Exact, 0)
				return encodePFFTNearArtifact(a)
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := crossingAt(0.5e-6)
			plain := extractVia(t, nil, tc.pipe, 0.5e-6)
			n := len(plain.Panels)
			clean := newMemStore()
			extractVia(t, clean, tc.pipe, 0.5e-6)
			ks := clean.keys()
			if len(ks) != 1 || !strings.HasSuffix(ks[0], nearSuffix) {
				t.Fatalf("cold build stored %q, want one near-field key", ks)
			}
			good, _ := clean.Get(ks[0])
			bad := tc.spoil(append([]byte(nil), good...), n)
			if decodeFMMNearArtifact(bad) == nil && decodePFFTNearArtifact(bad, n) == nil {
				t.Fatal("the decoder refuses the planted payload; the operator must be the one to refuse it")
			}
			store := newMemStore()
			store.Put(ks[0], bad)

			restart := func() (*Result, Stats, int) {
				p, err := New(Options{MaxEdge: 0.5e-6, Pipeline: tc.pipe, Artifacts: store})
				if err != nil {
					t.Fatal(err)
				}
				res, err := p.Extract(st)
				if err != nil {
					t.Fatal(err)
				}
				_, _, puts := store.counts()
				return res, p.Stats(), puts
			}
			first, _, puts1 := restart()
			if puts1 != 2 {
				t.Errorf("first restart wrote %d times over the refused payload, want once", puts1-1)
			}
			for i, v := range first.C.Data {
				if math.Float64bits(v) != math.Float64bits(plain.C.Data[i]) {
					t.Fatalf("first restart: C[%d] = %v, %v without a store", i, v, plain.C.Data[i])
				}
			}
			second, stats, puts2 := restart()
			if !second.Reused.NearField || stats.ClassesIntegrated != 0 || puts2 != puts1 {
				t.Errorf("second restart: near field reused %v, %d classes integrated, %d writes; want the whole payload adopted",
					second.Reused.NearField, stats.ClassesIntegrated, puts2-puts1)
			}
			if e := capError(second.C, plain.C); e > 1e-12 {
				t.Errorf("second restart deviates by %.3g", e)
			}
		})
	}
}

// TestDecodeFMMNearRejectsNonFinite: an fmm near field holding a NaN or an
// infinity is no artifact; a finite one round-trips.
func TestDecodeFMMNearRejectsNonFinite(t *testing.T) {
	if v := decodeFMMNearArtifact(encodeFMMNearArtifact([]float64{1, -2, 0})); len(v) != 3 || v[1] != -2 {
		t.Errorf("finite payload decoded to %v", v)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if v := decodeFMMNearArtifact(encodeFMMNearArtifact([]float64{1, bad, 0})); v != nil {
			t.Errorf("payload holding %v adopted: %v", bad, v)
		}
	}
}

// fullMatrixPayload is d as a "pba6" build laid it out: the tag, the row
// and column counts, then all n x n entries.
func fullMatrixPayload(d *linalg.Sym) []byte {
	b := binary.LittleEndian.AppendUint64([]byte{artTagDense}, uint64(d.N))
	b = binary.LittleEndian.AppendUint64(b, uint64(d.N))
	return appendFloats(b, d.Dense().Data)
}

// TestDenseArtifactBytes: the crossing pair's dense near field at 0.4 um
// (N = 524) ships exactly its packed triangle, 8 N(N+1)/2 bytes, after a
// header of its tag and its order — half the full matrix's 8 N².
func TestDenseArtifactBytes(t *testing.T) {
	store := newMemStore()
	p, err := New(Options{MaxEdge: 0.4e-6, Pipeline: op.Options{Backend: op.BackendDense, Direct: true}, Artifacts: store})
	if err != nil {
		t.Fatal(err)
	}
	st := geom.DefaultCrossingPair().Build()
	res, err := p.Extract(st)
	if err != nil {
		t.Fatal(err)
	}
	data, ok := store.Get(p.artifactKey(st, op.BackendDense, nil, nil) + nearSuffix)
	if n := len(res.Panels); !ok || n != 524 || len(data) != 1+8+8*n*(n+1)/2 {
		t.Fatalf("N = %d: %d bytes stored (found %v), want 9 + %d", n, len(data), ok, 8*n*(n+1)/2)
	}
}

// FuzzDecodeDenseArtifact: whatever the bytes, the decoder does not panic,
// and a matrix it returns has the build's order, n(n+1)/2 finite entries
// and a positive diagonal, and encodes back to the same bytes. The seeds
// are a valid payload, which is adopted, and six the decoder refuses: it
// truncated by one double; it against the wrong order; one holding a NaN;
// the same matrix as a "pba6" build laid it out, in full; a negative
// diagonal; and a bare tag.
func FuzzDecodeDenseArtifact(f *testing.F) {
	sym := &linalg.Sym{N: 2, Data: []float64{2, -1, 3}}
	good := encodeDenseArtifact(sym)
	for k, s := range []struct {
		data []byte
		n    int
	}{
		{good, 2},
		{good[:len(good)-8], 2},
		{good, 3},
		{encodeDenseArtifact(&linalg.Sym{N: 2, Data: []float64{2, math.NaN(), 3}}), 2},
		{fullMatrixPayload(sym), 2},
		{encodeDenseArtifact(&linalg.Sym{N: 1, Data: []float64{-1}}), 1},
		{[]byte{artTagDense}, 0},
	} {
		if adopted := decodeDenseArtifact(s.data, s.n) != nil; adopted != (k == 0) {
			f.Fatalf("seed %d adopted %v", k, adopted)
		}
		f.Add(s.data, uint8(s.n))
	}
	f.Fuzz(func(t *testing.T, data []byte, nb uint8) {
		n := int(nb % 16)
		d := decodeDenseArtifact(data, n)
		if d == nil {
			return
		}
		if d.N != n || len(d.Data) != n*(n+1)/2 {
			t.Fatalf("order %d, %d values for n = %d", d.N, len(d.Data), n)
		}
		for i := 0; i < n; i++ {
			if v := d.At(i, i); !(v > 0) || math.IsInf(v, 1) {
				t.Fatalf("diagonal entry %d = %v", i, v)
			}
		}
		for k, v := range d.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("packed entry %d = %v", k, v)
			}
		}
		if !bytes.Equal(encodeDenseArtifact(d), data) {
			t.Fatal("the adopted matrix does not encode back to its payload")
		}
	})
}

// FuzzDecodeFMMNearArtifact: whatever the bytes, the decoder does not
// panic, and values it returns are finite and encode back to the same
// bytes. The seeds are a valid payload, which is adopted, and six the
// decoder refuses: it truncated by one double; one holding a NaN; one
// holding an infinity; a count past the bytes that follow; another
// backend's tag; and a bare tag.
func FuzzDecodeFMMNearArtifact(f *testing.F) {
	good := encodeFMMNearArtifact([]float64{2, -1, 0.5})
	long := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(long[1:], 1<<60)
	for k, seed := range [][]byte{
		good,
		good[:len(good)-8],
		encodeFMMNearArtifact([]float64{2, math.NaN(), 0.5}),
		encodeFMMNearArtifact([]float64{math.Inf(-1)}),
		long,
		append([]byte{artTagPFFT}, good[1:]...),
		{artTagFMM},
	} {
		if adopted := decodeFMMNearArtifact(seed) != nil; adopted != (k == 0) {
			f.Fatalf("seed %d adopted %v", k, adopted)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v := decodeFMMNearArtifact(data)
		if v == nil {
			return
		}
		if !finite(v) {
			t.Fatalf("non-finite values adopted: %v", v)
		}
		if !bytes.Equal(encodeFMMNearArtifact(v), data) {
			t.Fatal("the adopted values do not encode back to their payload")
		}
	})
}

// FuzzDecodePFFTNearArtifact: whatever the bytes, the decoder does not
// panic, and a near field it returns has one row length per panel of the
// build, row lengths summing to len(Val) == len(Exact), finite values, and
// encodes back to the same bytes. The seeds are a valid payload, which is
// adopted, and six the decoder refuses: one with a NaN correction and an
// infinite exact entry; it against the wrong panel count; a negative row
// length; it truncated by one double; a value total that disagrees with
// the rows; and a bare tag.
func FuzzDecodePFFTNearArtifact(f *testing.F) {
	good := encodePFFTNearArtifact(&pfft.NearArtifact{RowLen: []int32{1, 2},
		Val: []float64{1, -0.5, 0.25}, Exact: []float64{2, -1, 0.5}})
	negative := encodePFFTNearArtifact(&pfft.NearArtifact{RowLen: []int32{-1, 4},
		Val: []float64{1, -0.5, 0.25}, Exact: []float64{2, -1, 0.5}})
	total := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(total[9+4*2:], 2)
	for k, s := range []struct {
		data []byte
		n    int
	}{
		{good, 2},
		{encodePFFTNearArtifact(&pfft.NearArtifact{RowLen: []int32{1, 1},
			Val: []float64{math.NaN(), 1}, Exact: []float64{1, math.Inf(1)}}), 2},
		{good, 3},
		{negative, 2},
		{good[:len(good)-8], 2},
		{total, 2},
		{[]byte{artTagPFFT}, 0},
	} {
		if adopted := decodePFFTNearArtifact(s.data, s.n) != nil; adopted != (k == 0) {
			f.Fatalf("seed %d adopted %v", k, adopted)
		}
		f.Add(s.data, uint8(s.n))
	}
	f.Fuzz(func(t *testing.T, data []byte, nb uint8) {
		n := int(nb % 16)
		a := decodePFFTNearArtifact(data, n)
		if a == nil {
			return
		}
		var sum int64
		for _, l := range a.RowLen {
			if l < 0 {
				t.Fatalf("row length %d", l)
			}
			sum += int64(l)
		}
		if len(a.RowLen) != n || int64(len(a.Val)) != sum || len(a.Exact) != len(a.Val) {
			t.Fatalf("%d rows summing to %d, %d corrections, %d exact entries for n = %d",
				len(a.RowLen), sum, len(a.Val), len(a.Exact), n)
		}
		if !finite(a.Val) || !finite(a.Exact) {
			t.Fatal("a non-finite value adopted")
		}
		if !bytes.Equal(encodePFFTNearArtifact(a), data) {
			t.Fatal("the adopted near field does not encode back to its payload")
		}
	})
}
