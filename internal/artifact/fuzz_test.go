package artifact

import (
	"bytes"
	"os"
	"testing"
)

// FuzzVerifyFrame feeds verifyFrame entry files it did not write: it
// must never panic, and a payload it accepts must be exactly what the
// file frames, so that re-framing it under the same key gives back the
// file byte for byte (nothing read past the frame, nothing skipped).
func FuzzVerifyFrame(f *testing.F) {
	const key = "abc123-near"
	s, err := Open(f.TempDir(), Options{})
	if err != nil {
		f.Fatal(err)
	}
	if err := s.Put(key, []byte("near-field values of family 7f")); err != nil {
		f.Fatal(err)
	}
	frame, err := os.ReadFile(s.path(key))
	if err != nil {
		f.Fatal(err)
	}
	flipped := bytes.Clone(frame)
	flipped[len(magic)+4+len(key)+4] ^= 0x01 // a byte of the CRC
	f.Add(key, frame)
	f.Add(key, frame[:len(frame)-1])
	f.Add(key, flipped)
	f.Add("abc124-near", frame)
	f.Fuzz(func(t *testing.T, key string, data []byte) {
		payload, err := verifyFrame(key, data)
		if err != nil {
			return
		}
		if again := encodeFrame(key, payload); !bytes.Equal(again, data) {
			t.Fatalf("accepted a payload of %d bytes whose frame under %q is not the input", len(payload), key)
		}
	})
}
