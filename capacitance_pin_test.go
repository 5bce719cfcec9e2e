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
// are taken before the 1/(4 pi eps0) scaling, so they cannot see it.
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
		{"crossing", "7aa9716e28d098fbb05470fd3d228de9bf56c518457a09ca2208b059b3ec7c1b", NewCrossingPair().Build()},
		{"bus4x4", "f08e57d925ea518fff98dda50d0ec3f3de54e8d75a06b104f61303a3557ffcb3", NewBus(4, 4).Build()},
		{"bus16x16", "7406231d1fc9d17f65bbf6f408925c4edf13f9eafacebef3596a40a3aa7678b4", NewBus(16, 16).Build()},
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
	}{
		{"crossing dense direct", "dd5166553fb4e39caebf3984c6258b094c463176d3fa1c73079188ff1ded8acb", PipelineOptions{Backend: BackendDense, Direct: true}},
		{"crossing fmm", "fb958f85c5a8d75e42fca77120505f675c0554386f8b989330bf16ea19dfe83b", PipelineOptions{Backend: BackendFMM}},
		{"crossing pfft", "a7a1f2a7e8fa0177701b2b592025ad26d40ae0e132de5e4d3423d74277688a01", PipelineOptions{Backend: BackendPFFT}},
	} {
		res, err := ExtractPipeline(NewCrossingPair().Build(), 0.5e-6, c.opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		check(c.name, c.parent, res.C)
	}
}
