package parbem

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"
)

// TestCapacitancePinnedParent pins every bit of C to commit 452efe3, the
// last one where the permittivity, the simulated interconnect, the basis
// calibration factors, the Krylov ring, the fmm leaf size and the pfft grid
// pitch were settings: their constants must give the values the defaults
// gave. The digests are of C.Data's little-endian bits, for the template
// solver at default Options and for the three panel backends on the
// crossing pair at a 0.5 um edge. The fill pins (TestFillPinnedParent)
// are taken before the 1/(4 pi eps0) scaling, so they cannot see it. The
// four direct-solve digests (the template cases and dense direct) were
// re-recorded when the direct solve began to take C = Yᵀ D⁻¹ Y from its
// forward sweep instead of reducing Phiᵀ Rho: C moved by at most 2.2e-15
// (CapError), and the fmm and pfft digests did not move.
// Asserted on amd64, where gc never fuses a multiply-add; other
// architectures log theirs.
func TestCapacitancePinnedParent(t *testing.T) {
	digest := func(c *Matrix) string {
		h := sha256.New()
		var b [8]byte
		for _, v := range c.Data {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	check := func(name, parent string, c *Matrix) {
		got := digest(c)
		if runtime.GOARCH != "amd64" {
			t.Logf("%s: C digest %s (parent's, on amd64: %s)", name, got, parent)
		} else if got != parent {
			t.Errorf("%s: C digest %s, parent commit's %s", name, got, parent)
		}
	}
	for _, c := range []struct {
		name, parent string
		st           *Structure
	}{
		{"crossing", "90d9b68a05452bfea7e93e30c389a0b3648bb5ce0fe35707191d202b32a3eab2", NewCrossingPair().Build()},
		{"bus4x4", "8053f053d0fea8f265120ad68194e0930cdc2026f1e38240711dc2ba729477f4", NewBus(4, 4).Build()},
		{"bus16x16", "a89224a40d2e36e6e293598c39a7592917f56b86ae54ef4759235a5bc5ef2d19", NewBus(16, 16).Build()},
	} {
		res, err := Extract(c.st, Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		check(c.name, c.parent, res.C)
	}
	for _, c := range []struct {
		name, parent string
		opt          PipelineOptions
		rho          string // the charges' digest, where pinned
	}{
		{"crossing dense direct", "298ab502d752c9737aae00028170d19422240dadc63220e7ec2c64a21f77e07b", PipelineOptions{Backend: BackendDense, Direct: true},
			// The same bits as before C came from the forward sweep.
			"b4110c3355dff212576218d4b77029f7d356706fafd51980a927cf40796a1e6e"},
		{"crossing fmm", "fb958f85c5a8d75e42fca77120505f675c0554386f8b989330bf16ea19dfe83b", PipelineOptions{Backend: BackendFMM}, ""},
		{"crossing pfft", "a7a1f2a7e8fa0177701b2b592025ad26d40ae0e132de5e4d3423d74277688a01", PipelineOptions{Backend: BackendPFFT}, ""},
	} {
		res, err := ExtractPipeline(NewCrossingPair().Build(), 0.5e-6, c.opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		check(c.name, c.parent, res.C)
		if c.rho != "" {
			check(c.name+" charges", c.rho, res.Rho)
		}
	}
}
