package basis

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"parbem/internal/geom"
)

// setDigest is the SHA-256 of everything a fill reads of a set: every
// template's bits (support, direction, shape parameters, amplitude), the
// owner array and the function ranges.
func setDigest(s *Set) string {
	h := sha256.New()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	float := func(v float64) { word(math.Float64bits(v)) }
	word(uint64(s.NumConductors))
	for _, t := range s.Templates {
		r := t.Support
		word(uint64(r.Normal))
		for _, v := range [...]float64{r.Offset, r.U.Lo, r.U.Hi, r.V.Lo, r.V.Hi} {
			float(v)
		}
		word(uint64(t.Dir))
		switch sh := t.Shape.(type) {
		case FlatShape:
			word(0)
		case ArchShape:
			word(1)
			float(sh.EdgePos)
			float(sh.LambdaIn)
			float(sh.LambdaOut)
		default:
			panic(fmt.Sprintf("unknown shape %T", sh))
		}
		float(t.Amplitude)
	}
	for _, o := range s.Owner {
		word(uint64(o))
	}
	for _, f := range s.Functions {
		for _, v := range [...]int{f.Conductor, f.TplLo, f.TplHi, int(f.Kind)} {
			word(uint64(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBuildPinnedDigests pins the built set bit for bit: the template
// pins, the fill's and the golden corpus all read a set, so a builder
// change that moves a template, an amplitude or the emission order shows
// here first.
func TestBuildPinnedDigests(t *testing.T) {
	structures := []struct {
		name string
		st   *geom.Structure
	}{
		{"bus16", geom.DefaultBus(16, 16).Build()},
		{"crossing", geom.DefaultCrossingPair().Build()},
		{"interconnect", geom.DefaultInterconnect().Build()},
	}
	want := map[string]string{
		"bus16/merged":          "a2de23572de46021b777905a1c01c5b698a92faca1e9f984282270aece050dc8",
		"bus16/separate":        "1384de3bf1b913e6bfe93c1171c8e7eb0baf4de06b8494ac16b5ad0160679b9a",
		"crossing/merged":       "561b83b9d223d8ff6ce702ef2cd7df73c5ac5862f6dc6df6cc66d292c19945e2",
		"crossing/separate":     "561b83b9d223d8ff6ce702ef2cd7df73c5ac5862f6dc6df6cc66d292c19945e2",
		"interconnect/merged":   "07738f49ebf399120573fe833a313c873eb3b079a1d97c97ef7ca9e5e2ccde34",
		"interconnect/separate": "3e7cbadf5355feee19a025e14813f9386a7bb821641dd42de27ba65d38d2b932",
	}
	for _, c := range structures {
		for _, separate := range []bool{false, true} {
			name := c.name + "/merged"
			if separate {
				name = c.name + "/separate"
			}
			opt := BuilderOptions{}
			opt.SeparateInduced = separate
			set := Build(c.st, opt)
			if err := set.Validate(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := setDigest(set); got != want[name] {
				t.Errorf("%s (N = %d, M = %d): digest %s, want %s", name, set.N(), set.M(), got, want[name])
			}
		}
	}
}

// buildAllocs returns the bytes and the mallocs of one Build of st, the
// mean over a few runs.
func buildAllocs(st *geom.Structure) (bytes, mallocs float64) {
	const runs = 4
	opt := BuilderOptions{}
	Build(st, opt)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		Build(st, opt)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs, float64(after.Mallocs-before.Mallocs) / runs
}

// TestBuildAllocationGuard bounds what Build allocates beyond the set it
// returns (0.24 MB at 16x16): the set's arrays are allocated once at their
// final length and the per-placement neighbour lists are reused, so the
// garbage does not grow as m·n·(m+n) on an m×n bus.
func TestBuildAllocationGuard(t *testing.T) {
	bytes, mallocs := buildAllocs(geom.DefaultBus(16, 16).Build())
	t.Logf("16x16 bus: Build allocates %.3f MB in %.0f mallocs", bytes/1e6, mallocs)
	if bytes > 0.85e6 || mallocs > 1600 {
		t.Errorf("16x16 bus: Build allocates %.0f bytes in %.0f mallocs, want at most 0.85 MB and 1 600", bytes, mallocs)
	}
	if testing.Short() {
		return
	}
	bytes, _ = buildAllocs(geom.DefaultBus(24, 24).Build())
	t.Logf("24x24 bus: Build allocates %.3f MB", bytes/1e6)
	if bytes > 1.8e6 {
		t.Errorf("24x24 bus: Build allocates %.0f bytes, want at most 1.8 MB", bytes)
	}
}

var buildSink *Set

// BenchmarkBuild builds the 16x16 bus's basis; B/op and allocs/op are the
// builder's whole allocation, the returned set included.
func BenchmarkBuild(b *testing.B) {
	st := geom.DefaultBus(16, 16).Build()
	opt := BuilderOptions{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildSink = Build(st, opt)
	}
}
