package plan

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"sync"
	"testing"

	"parbem/internal/fmm"
	"parbem/internal/kernel"
	"parbem/internal/linalg"
	"parbem/internal/op"
	"parbem/internal/pfft"
)

// memStore is an in-memory ArtifactStore for tests (the disk-backed one
// lives in internal/artifact and is wired up by internal/serve).
type memStore struct {
	mu   sync.Mutex
	m    map[string][]byte
	gets int
	puts int
}

func newMemStore() *memStore { return &memStore{m: map[string][]byte{}} }

func (s *memStore) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gets++
	data, ok := s.m[key]
	return data, ok
}

func (s *memStore) Put(key string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts++
	s.m[key] = append([]byte(nil), data...)
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
// to a store warmed by another plan adopts the near-field payload, its
// result matches the cold build to 1e-12, and the reuse flag reports
// the adoption.
func TestPlanArtifactRoundTrip(t *testing.T) {
	backends := []struct {
		name string
		pipe op.Options
	}{
		{"dense", op.Options{Backend: op.BackendDense, Direct: true}},
		{"fmm", op.Options{Backend: op.BackendFMM, Precond: op.PrecondBlockJacobi,
			Tol: 1e-10, FMM: &fmm.Options{Workers: 1}}},
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
			if len(store.keys()) == 0 {
				t.Fatal("cold build wrote no artifacts")
			}
			warm := extractVia(t, store, be.pipe, 0.5e-6)
			if !warm.Reused.NearField {
				t.Error("restarted plan did not adopt the near-field artifact")
			}
			if e := capError(warm.C, cold.C); e > 1e-12 {
				t.Errorf("artifact-adopted result deviates by %.3g", e)
			}
		})
	}
}

// TestPlanArtifactStats checks the hit/miss/put counters: a cold build
// misses then writes, a warm restart hits and writes nothing new.
func TestPlanArtifactStats(t *testing.T) {
	store := newMemStore()
	pipe := op.Options{Backend: op.BackendFMM, Precond: op.PrecondBlockJacobi,
		Tol: 1e-8, FMM: &fmm.Options{Workers: 1}}

	p1, err := New(Options{MaxEdge: 0.5e-6, Pipeline: pipe, Artifacts: store})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p1.Extract(crossingAt(0.5e-6)); err != nil {
		t.Fatal(err)
	}
	s1 := p1.Stats()
	if s1.ArtifactHits != 0 || s1.ArtifactMisses == 0 || s1.ArtifactPuts == 0 {
		t.Errorf("cold stats: %+v", s1)
	}
	putsAfterCold := store.puts

	p2, err := New(Options{MaxEdge: 0.5e-6, Pipeline: pipe, Artifacts: store})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p2.Extract(crossingAt(0.5e-6)); err != nil {
		t.Fatal(err)
	}
	s2 := p2.Stats()
	// Near payload and factor payload both hit.
	if s2.ArtifactHits < 2 || s2.ArtifactPuts != 0 {
		t.Errorf("warm stats: %+v", s2)
	}
	if store.puts != putsAfterCold {
		t.Errorf("warm build re-wrote artifacts: %d puts, want %d", store.puts, putsAfterCold)
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
	fo := fmm.Options{LeafSize: 16}
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
		return artifactHash(artifactSchema, 0.5e-6, kernel.Eps0, cfg.Fingerprint(arith), op.BackendDense, nil, nil, st)
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
// across an upgrade, or a peer still running the old build, would hand
// back. The older builds: the one from before kernel.ArithVersion ("pba1"
// and its standard-provider tag); the "pba2" ones, whose near-field values
// were integrated at each pair's absolute coordinates where this build
// stores symmetry-class values; the "pba3" ones, which encoded the kernel
// configuration field by field; the "pba4" ones, whose block factors were
// full Cholesky matrices; and one of today's schema whose kernel
// arithmetic was the version before this one. The plan must
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
		{"arithmetic before", artifactSchema, kernel.DefaultConfig().Fingerprint(kernel.ArithVersion - 1)},
	} {
		p, err := New(Options{MaxEdge: 0.5e-6, Pipeline: pipe, Artifacts: newMemStore()})
		if err != nil {
			t.Fatal(err)
		}
		key := p.artifactKey(st, op.BackendDense, nil, nil)
		oldKey := artifactHash(old.schema, 0.5e-6, kernel.Eps0, old.fp, op.BackendDense, nil, nil, st)
		if oldKey == key {
			t.Fatalf("%s: old key %q, current key %q: want two distinct keys", old.name, oldKey, key)
		}
		payload, found := clean.Get(key + nearSuffix)
		if !found {
			t.Fatal("cold build stored no near-field artifact under the current key")
		}
		stale := append([]byte(nil), payload...)
		for i := len(stale) - 8; i >= 17; i -= 8 { // every value doubled: adoption would show in C
			v := math.Float64frombits(binary.LittleEndian.Uint64(stale[i:]))
			binary.LittleEndian.PutUint64(stale[i:], math.Float64bits(2*v))
		}
		store := newMemStore()
		store.Put(oldKey+nearSuffix, stale)

		p2, err := New(Options{MaxEdge: 0.5e-6, Pipeline: pipe, Artifacts: store})
		if err != nil {
			t.Fatal(err)
		}
		res, err := p2.Extract(st)
		if err != nil {
			t.Fatal(err)
		}
		if s := p2.Stats(); s.ArtifactHits != 0 || s.ArtifactMisses == 0 || s.ArtifactPuts == 0 {
			t.Errorf("%s: stats over a store of old artifacts: %+v, want misses and puts only", old.name, s)
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
// own key, a well-framed dense near field of the right shape that no
// assembly produces — NaNs, or one entry that is not its mirror's — as a
// corrupted disk or a faulty peer could hand back. The plan must count a
// miss, build afresh, store the good payload over the bad one and return
// C bitwise equal to a build without a store.
func TestPlanArtifactImplausibleValuesNeverAdopted(t *testing.T) {
	pipe := op.Options{Backend: op.BackendDense, Direct: true}
	st := crossingAt(0.5e-6)
	plain := extractVia(t, nil, pipe, 0.5e-6)
	clean := newMemStore()
	p, err := New(Options{MaxEdge: 0.5e-6, Pipeline: pipe, Artifacts: clean})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Extract(st); err != nil {
		t.Fatal(err)
	}
	cold := p.Stats() // what an empty store costs
	key := p.artifactKey(st, op.BackendDense, nil, nil) + nearSuffix
	good, found := clean.Get(key)
	if !found {
		t.Fatal("cold build stored no near-field artifact under the family key")
	}
	n := int(binary.LittleEndian.Uint64(good[1:]))
	for name, spoil := range map[string]func(b []byte){
		"nan": func(b []byte) {
			for i := 17; i < len(b); i += 8 {
				binary.LittleEndian.PutUint64(b[i:], math.Float64bits(math.NaN()))
			}
		},
		"asymmetric": func(b []byte) {
			at := 17 + 8*(0*n+1) // entry (0, 1); (1, 0) keeps its bits
			v := math.Float64frombits(binary.LittleEndian.Uint64(b[at:]))
			binary.LittleEndian.PutUint64(b[at:], math.Float64bits(math.Nextafter(v, 0)))
		},
	} {
		t.Run(name, func(t *testing.T) {
			bad := append([]byte(nil), good...)
			spoil(bad)
			if decodeDenseArtifact(bad, n) != nil {
				t.Fatal("the decoder adopts the spoiled payload")
			}
			store := newMemStore()
			store.Put(key, bad)
			p, err := New(Options{MaxEdge: 0.5e-6, Pipeline: pipe, Artifacts: store})
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.Extract(st)
			if err != nil {
				t.Fatal(err)
			}
			if s := p.Stats(); s != cold || s.ArtifactHits != 0 || s.ArtifactMisses == 0 || res.Reused.NearField {
				t.Errorf("stats %+v, near field reused %v: want an empty store's %+v", s, res.Reused.NearField, cold)
			}
			for i, v := range res.C.Data {
				if math.Float64bits(v) != math.Float64bits(plain.C.Data[i]) {
					t.Fatalf("C[%d] = %v, %v without a store", i, v, plain.C.Data[i])
				}
			}
			if data, _ := store.Get(key); decodeDenseArtifact(data, n) == nil {
				t.Error("the fresh build did not replace the spoiled payload")
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

// FuzzDecodeDenseArtifact: whatever the bytes, the decoder does not panic,
// and a matrix it returns has the build's shape, finite entries, a positive
// diagonal and bitwise mirrored off-diagonal entries, and encodes back to
// the same bytes.
func FuzzDecodeDenseArtifact(f *testing.F) {
	sym := linalg.NewDenseFrom(2, 2, []float64{2, -1, -1, 3})
	f.Add(encodeDenseArtifact(sym), uint8(2))
	f.Add(encodeDenseArtifact(linalg.NewDenseFrom(2, 2, []float64{2, -1, -0.5, 3})), uint8(2))
	f.Add(encodeDenseArtifact(linalg.NewDenseFrom(1, 1, []float64{math.NaN()})), uint8(1))
	f.Add(encodeDenseArtifact(linalg.NewDenseFrom(1, 1, []float64{-1})), uint8(1))
	f.Add([]byte{artTagDense}, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, nb uint8) {
		n := int(nb % 16)
		d := decodeDenseArtifact(data, n)
		if d == nil {
			return
		}
		if d.Rows != n || d.Cols != n || len(d.Data) != n*n {
			t.Fatalf("%dx%d matrix of %d values for n = %d", d.Rows, d.Cols, len(d.Data), n)
		}
		for i := 0; i < n; i++ {
			if v := d.At(i, i); !(v > 0) || math.IsInf(v, 1) {
				t.Fatalf("diagonal entry %d = %v", i, v)
			}
			for j := 0; j < n; j++ {
				v := d.At(i, j)
				if math.IsNaN(v) || math.IsInf(v, 0) || math.Float64bits(v) != math.Float64bits(d.At(j, i)) {
					t.Fatalf("entry (%d, %d) = %v, its mirror %v", i, j, v, d.At(j, i))
				}
			}
		}
		if !bytes.Equal(encodeDenseArtifact(d), data) {
			t.Fatal("the adopted matrix does not encode back to its payload")
		}
	})
}

// FuzzDecodeFactorArtifact: whatever the bytes, the decoder does not
// panic, and every factor it returns is one a positive definite block
// produces — order one per key unknown, finite entries, 1x1 pivots
// interchanging forward, a positive D — whose solve stays in range, and
// the map survives an encode and decode bit for bit.
func FuzzDecodeFactorArtifact(f *testing.F) {
	factors := func(blocks ...*linalg.Dense) []byte {
		m := map[string]*linalg.LDLT{}
		var buf []byte
		for k, b := range blocks {
			fa, err := linalg.FactorSym(linalg.PackLower(b))
			if err != nil {
				f.Fatal(err)
			}
			ix := make([]int32, b.Rows)
			for i := range ix {
				ix[i] = int32(10*k + i)
			}
			m[string(blockKey(&buf, ix))] = fa
		}
		return encodeFactorArtifact(m)
	}
	good := factors(linalg.NewDenseFrom(2, 2, []float64{1e-3, 1, 1, 1e4}), linalg.NewDenseFrom(1, 1, []float64{3}))
	twoByTwo := factors(linalg.NewDenseFrom(2, 2, []float64{1, 2, 2, 1}))
	negative := factors(linalg.NewDenseFrom(1, 1, []float64{-2}))
	if len(decodeFactorArtifact(good)) != 2 || decodeFactorArtifact(twoByTwo) != nil || decodeFactorArtifact(negative) != nil {
		f.Fatal("a positive definite block's factors must be adopted, an indefinite one's refused")
	}
	for _, seed := range [][]byte{good, twoByTwo, negative, factors(), {artTagFact}} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m := decodeFactorArtifact(data)
		if m == nil {
			return
		}
		back := decodeFactorArtifact(encodeFactorArtifact(m))
		if len(back) != len(m) {
			t.Fatalf("%d factors re-decode to %d", len(m), len(back))
		}
		for key, fa := range m {
			a, piv := fa.Packed()
			n := a.N
			if len(key) != 4*n || len(a.Data) != linalg.PackedLen(n) || len(piv) != n {
				t.Fatalf("order %d under a %d-byte key, %d entries, %d pivots", n, len(key), len(a.Data), len(piv))
			}
			for k, p := range piv {
				if p < k || p >= n || !(a.Row(k)[k] > 0) || math.IsInf(a.Row(k)[k], 1) {
					t.Fatalf("step %d: pivot %d, D = %v", k, p, a.Row(k)[k])
				}
			}
			if !finite(a.Data) {
				t.Fatal("a non-finite entry adopted")
			}
			x := make([]float64, n)
			fa.SolveVec(x)
			b, bpiv := back[key].Packed()
			for i, v := range a.Data {
				if math.Float64bits(v) != math.Float64bits(b.Data[i]) {
					t.Fatalf("entry %d: %v re-decodes to %v", i, v, b.Data[i])
				}
			}
			for k := range piv {
				if piv[k] != bpiv[k] {
					t.Fatalf("pivot %d: %d re-decodes to %d", k, piv[k], bpiv[k])
				}
			}
		}
	})
}
