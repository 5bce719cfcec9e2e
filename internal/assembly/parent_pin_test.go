package assembly_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"parbem/internal/assembly"
	"parbem/internal/basis"
	"parbem/internal/geom"
)

// TestFillPinnedParent pins every bit of P to commit daa5d1d, the last
// one where the integrator carried a tabulated-collocation branch in
// templatePairNear, pairCrossAxis and source.potentialAt: the digests
// are of FillSerial(set, NewIntegrator()).Dense().Data — the full N×N,
// as the fill returned it then — recorded there before those branches
// were deleted, every element compared by its bits (the sign of an exact
// zero normalised, as TestConvolvePinnedParent does).
// Asserted on amd64, where gc never fuses a multiply-add; other
// architectures log theirs.
func TestFillPinnedParent(t *testing.T) {
	for _, c := range []struct {
		name, parent string
		st           *geom.Structure
	}{
		{"crossing", "3c1baa3ee1f81513c25e4a0f32bc3c51e5af2cc0b32bdc3da7a600dafdb49d5c", geom.DefaultCrossingPair().Build()},
		{"bus4x4", "585375b13e34f83a4c4b91401db7cb6db4a3ebf20a68672b4c20fe271e21c37f", geom.DefaultBus(4, 4).Build()},
		{"interconnect", "61645ddb03cff5819b49cc1c8147884e6e7b5215438f8db7c93dca449349f28d", geom.DefaultInterconnect().Build()},
	} {
		set := basis.Build(c.st, basis.BuilderOptions{})
		P := assembly.FillSerial(set, assembly.NewIntegrator()).Dense()
		h := sha256.New()
		var b [8]byte
		for _, v := range P.Data {
			if v == 0 {
				v = 0 // -0 -> +0
			}
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
		got := hex.EncodeToString(h.Sum(nil))
		if runtime.GOARCH != "amd64" {
			t.Logf("%s: P digest %s (parent's, on amd64: %s)", c.name, got, c.parent)
		} else if got != c.parent {
			t.Errorf("%s: P digest %s, parent commit's %s", c.name, got, c.parent)
		}
	}
}
