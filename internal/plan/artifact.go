// Artifact persistence: the plan's expensive stage artifacts — the
// near-field values (dense matrix, FMM CSR values, pFFT precorrection
// rows) and the preconditioner's block LDLᵀ factors — survive
// process restarts and travel between replicas through an ArtifactStore
// (internal/artifact on disk, fronted by a peer-fetching resolver in
// internal/serve).
//
// The store is content-addressed: the key is a sha256 over the exact
// inputs that determine the artifact bit-for-bit — panelization edge,
// dielectric, kernel configuration, resolved backend with its
// topology-relevant tuning, and every conductor box's float64 bits. Two
// requests with identical keys rebuild identical CSR/row layouts (the
// layout is a deterministic function of the geometry), so only the
// value arrays are stored; indices and interaction lists are rebuilt,
// which keeps artifacts at one or two float64 per entry. The cheap
// O(N log N) Discretization and Topology stages are deliberately not
// persisted — they carry no kernel integrals and rebuild faster than
// they deserialize.
//
// Artifacts can never change results, only construction time: a decoded
// payload is adopted only when its shape matches the layout the build
// just produced (length checks in fmm, per-row checks in pfft, dim
// checks here) and, for the dense and fmm near fields and the block
// factors, its values could have come from this program (finite; a dense
// matrix mirrored bitwise with a positive diagonal; a factor of a positive
// definite block, linalg.NewLDLT), and any mismatch or corruption degrades
// to a fresh integration or factorization.
package plan

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"

	"parbem/internal/fmm"
	"parbem/internal/geom"
	"parbem/internal/kernel"
	"parbem/internal/linalg"
	"parbem/internal/op"
	"parbem/internal/pfft"
)

// ArtifactStore is the persistence hook a Plan reads stage artifacts
// through before building and writes through after. Implementations
// must be safe for concurrent use and are free to drop entries (LRU
// budget, corruption, peer miss): Get returning ok=false simply costs a
// fresh build, and Put is fire-and-forget (a failed write is the
// implementation's to log). internal/artifact provides the disk-backed
// implementation; internal/serve layers peer fetching on top.
type ArtifactStore interface {
	Get(key string) ([]byte, bool)
	Put(key string, data []byte)
}

// Artifact key suffixes: one family hash owns one entry per persisted
// stage.
const (
	nearSuffix = "-near" // near-field values (backend-tagged payload)
	factSuffix = "-fact" // block-Jacobi LDLᵀ factors
)

// Payload tags (first byte) keep a near-field blob from being decoded
// by the wrong backend after a store mixup.
const (
	artTagDense = 'D'
	artTagFMM   = 'F'
	artTagPFFT  = 'P'
	artTagFact  = 'K'
)

// artifactKey returns the family content hash for the current build,
// or "" when persistence is off. The kernel configuration and permittivity
// hashed are the plan's: the only ones its operators integrate with,
// whatever the backend (op.FMMOptions, op.PFFTOptions).
func (p *Plan) artifactKey(st *geom.Structure, be op.Backend, fo *fmm.Options, po *pfft.Options) string {
	if p.opt.Artifacts == nil {
		return ""
	}
	return artifactHash(artifactSchema, p.opt.MaxEdge, kernel.Eps0, p.cfg.Fingerprint(kernel.ArithVersion), be, fo, po, st)
}

// artifactSchema opens every family hash: the version of what an artifact
// holds, so that an artifact written by a build that computed or laid it
// out otherwise — on disk or in a peer's store — is a miss, never adopted.
// The arithmetic of its kernel values is the configuration fingerprint's
// to name. ("pba1" was followed by an elementary-function provider tag;
// "pba2" near fields — dense, fmm and pfft alike — held each pair's
// integral at its absolute coordinates, where "pba3" holds the value of
// the pair's symmetry class; "pba3" hashed the kernel configuration field
// by field and an operator's own permittivity, where "pba4" hashes
// kernel.Config.Fingerprint and the plan's one permittivity: the same
// values under new key bytes, which a "pba3" entry must not alias; "pba4"
// block factors were Cholesky factors stored as full n x n matrices, where
// "pba5" stores each block's packed LDLᵀ triangle and its pivots.)
var artifactSchema = []byte("pba5")

// artifactHash computes the family content hash under the given schema
// header, fp being the kernel configuration's fingerprint
// (kernel.Config.Fingerprint).
//
// Backend tuning values are hashed raw (unresolved zero defaults are
// distinct from their explicit equivalents): identical Options always
// produce identical keys, which is the contract that matters; a
// zero-vs-explicit-default mismatch only costs a missed dedup.
func artifactHash(schema []byte, maxEdge, eps float64, fp uint64, be op.Backend,
	fo *fmm.Options, po *pfft.Options, st *geom.Structure) string {
	h := sha256.New()
	var buf [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wf := func(f float64) { w64(math.Float64bits(f)) }
	h.Write(schema)
	h.Write([]byte{byte(be)})
	wf(maxEdge)
	wf(eps)
	w64(fp)
	switch {
	case fo != nil:
		w64(uint64(fo.LeafSize))
		wf(fo.Theta)
		wf(fo.NearFactor)
	case po != nil:
		wf(po.GridSpacing)
		w64(uint64(po.MaxNodes))
		wf(po.NearRadius)
	}
	w64(uint64(len(st.Conductors)))
	for _, c := range st.Conductors {
		w64(uint64(len(c.Boxes)))
		for _, b := range c.Boxes {
			wf(b.Min.X)
			wf(b.Min.Y)
			wf(b.Min.Z)
			wf(b.Max.X)
			wf(b.Max.Y)
			wf(b.Max.Z)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// appendFloats appends the little-endian bits of v.
func appendFloats(b []byte, v []float64) []byte {
	for _, f := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	return b
}

// readFloats decodes n float64 from data, nil-checked by the caller via
// the ok return.
func readFloats(data []byte, n int) ([]float64, []byte, bool) {
	need := int64(n) * 8
	if int64(len(data)) < need {
		return nil, nil, false
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
	}
	return v, data[need:], true
}

func encodeDenseArtifact(d *linalg.Dense) []byte {
	b := make([]byte, 0, 1+16+8*len(d.Data))
	b = append(b, artTagDense)
	b = binary.LittleEndian.AppendUint64(b, uint64(d.Rows))
	b = binary.LittleEndian.AppendUint64(b, uint64(d.Cols))
	return appendFloats(b, d.Data)
}

// decodeDenseArtifact rejects any payload whose dims disagree with the
// n-panel build it is being adopted into, and any matrix no assembly
// produces: a non-finite value, an entry that is not bitwise its mirror's
// (the assembly mirrors its upper triangle), a diagonal entry that is not
// positive (a self term is).
func decodeDenseArtifact(data []byte, n int) *linalg.Dense {
	if len(data) < 17 || data[0] != artTagDense {
		return nil
	}
	rows := binary.LittleEndian.Uint64(data[1:])
	cols := binary.LittleEndian.Uint64(data[9:])
	if rows != uint64(n) || cols != uint64(n) {
		return nil
	}
	vals, rest, ok := readFloats(data[17:], n*n)
	if !ok || len(rest) != 0 || !finite(vals) {
		return nil
	}
	for i := 0; i < n; i++ {
		if !(vals[i*n+i] > 0) {
			return nil
		}
		for j := i + 1; j < n; j++ {
			if math.Float64bits(vals[i*n+j]) != math.Float64bits(vals[j*n+i]) {
				return nil
			}
		}
	}
	return &linalg.Dense{Rows: n, Cols: n, Data: vals}
}

// finite reports whether every value of v is a finite number.
func finite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

func encodeFMMNearArtifact(vals []float64) []byte {
	b := make([]byte, 0, 9+8*len(vals))
	b = append(b, artTagFMM)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(vals)))
	return appendFloats(b, vals)
}

// decodeFMMNearArtifact rejects a payload of the wrong length (fmm checks
// it against its layout) or holding a non-finite value.
func decodeFMMNearArtifact(data []byte) []float64 {
	if len(data) < 9 || data[0] != artTagFMM {
		return nil
	}
	n := binary.LittleEndian.Uint64(data[1:])
	if n > uint64(len(data))/8 {
		return nil
	}
	vals, rest, ok := readFloats(data[9:], int(n))
	if !ok || len(rest) != 0 || !finite(vals) {
		return nil
	}
	return vals
}

func encodePFFTNearArtifact(a *pfft.NearArtifact) []byte {
	b := make([]byte, 0, 17+4*len(a.RowLen)+8*(len(a.Val)+len(a.Exact)))
	b = append(b, artTagPFFT)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(a.RowLen)))
	for _, l := range a.RowLen {
		b = binary.LittleEndian.AppendUint32(b, uint32(l))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(len(a.Val)))
	b = appendFloats(b, a.Val)
	return appendFloats(b, a.Exact)
}

// decodePFFTNearArtifact rejects any payload whose row count disagrees
// with the n-panel build, whose row lengths are negative, or whose flat
// arrays do not sum to the row total.
func decodePFFTNearArtifact(data []byte, n int) *pfft.NearArtifact {
	if len(data) < 9 || data[0] != artTagPFFT {
		return nil
	}
	rows := binary.LittleEndian.Uint64(data[1:])
	if rows != uint64(n) {
		return nil
	}
	data = data[9:]
	if int64(len(data)) < int64(n)*4+8 {
		return nil
	}
	a := &pfft.NearArtifact{RowLen: make([]int32, n)}
	var total int64
	for i := range a.RowLen {
		l := int32(binary.LittleEndian.Uint32(data[i*4:]))
		if l < 0 {
			return nil
		}
		a.RowLen[i] = l
		total += int64(l)
	}
	data = data[n*4:]
	if binary.LittleEndian.Uint64(data) != uint64(total) {
		return nil
	}
	var ok bool
	if a.Val, data, ok = readFloats(data[8:], int(total)); !ok {
		return nil
	}
	var rest []byte
	if a.Exact, rest, ok = readFloats(data, int(total)); !ok || len(rest) != 0 {
		return nil
	}
	return a
}

// encodeFactorArtifact serializes the Factorization stage: each
// factorized near block's packed LDLᵀ triangle and pivots (linalg.LDLT's
// Packed), keyed by its exact unknown sequence (blockKey bytes). Keys are
// sorted so identical factor maps serialize to identical bytes.
func encodeFactorArtifact(m map[string]*linalg.LDLT) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b := []byte{artTagFact}
	b = binary.LittleEndian.AppendUint64(b, uint64(len(keys)))
	for _, k := range keys {
		a, piv := m[k].Packed()
		b = binary.LittleEndian.AppendUint32(b, uint32(len(k)))
		b = append(b, k...)
		b = binary.LittleEndian.AppendUint32(b, uint32(a.N))
		b = appendFloats(b, a.Data)
		for _, p := range piv {
			b = binary.LittleEndian.AppendUint32(b, uint32(int32(p)))
		}
	}
	return b
}

// decodeFactorArtifact rejects a payload whose block order disagrees with
// its key, whose length is wrong, or holding a factor that no positive
// definite block produces — a non-finite entry, a pivot outside [k, n), a
// 2x2 block (a negative pivot marker), a D_kk <= 0: linalg.NewLDLT's
// checks. A block-Jacobi factor is positive definite by construction.
func decodeFactorArtifact(data []byte) map[string]*linalg.LDLT {
	if len(data) < 9 || data[0] != artTagFact {
		return nil
	}
	count := binary.LittleEndian.Uint64(data[1:])
	data = data[9:]
	if count > uint64(len(data)) { // each entry takes well over one byte
		return nil
	}
	m := make(map[string]*linalg.LDLT, count)
	for e := uint64(0); e < count; e++ {
		if len(data) < 4 {
			return nil
		}
		kl := binary.LittleEndian.Uint32(data)
		data = data[4:]
		if uint64(len(data)) < uint64(kl)+4 {
			return nil
		}
		key := string(data[:kl])
		data = data[kl:]
		nu := binary.LittleEndian.Uint32(data)
		data = data[4:]
		// A block's key holds one uint32 per unknown — orders must agree.
		if uint64(nu)*4 != uint64(kl) {
			return nil
		}
		n := int(nu)
		vals, rest, ok := readFloats(data, linalg.PackedLen(n))
		if !ok || uint64(len(rest)) < uint64(n)*4 {
			return nil
		}
		piv := make([]int, n)
		for k := range piv {
			piv[k] = int(int32(binary.LittleEndian.Uint32(rest[4*k:])))
		}
		data = rest[4*n:]
		f, err := linalg.NewLDLT(&linalg.Sym{N: n, Data: vals}, piv)
		if err != nil {
			return nil
		}
		m[key] = f
	}
	if len(data) != 0 {
		return nil
	}
	return m
}

// artifactFactors turns a decoded factor map into a NewPrebuilt lookup.
// No rigid-motion class check is needed: the store key pins the exact
// geometry, so a block covering the same unknown sequence has bitwise
// the same matrix.
func artifactFactors(m map[string]*linalg.LDLT) func(idx []int32) *linalg.LDLT {
	var buf []byte
	return func(ix []int32) *linalg.LDLT {
		return m[string(blockKey(&buf, ix))]
	}
}

// chainFactors tries lookups in order (in-memory previous variant
// first, then the decoded artifact).
func chainFactors(a, b func(idx []int32) *linalg.LDLT) func(idx []int32) *linalg.LDLT {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return func(ix []int32) *linalg.LDLT {
		if c := a(ix); c != nil {
			return c
		}
		return b(ix)
	}
}
