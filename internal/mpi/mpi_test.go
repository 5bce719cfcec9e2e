package mpi

import (
	"math"
	"testing"
)

func TestSendRecvRoundtrip(t *testing.T) {
	Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.SendFloat64s(1, 7, []float64{1, 2.5, -3})
			got := c.RecvInts(1, 8)
			if len(got) != 2 || got[0] != 42 || got[1] != -1 {
				t.Errorf("ints = %v", got)
			}
		} else {
			got := c.RecvFloat64s(0, 7)
			if len(got) != 3 || got[1] != 2.5 {
				t.Errorf("floats = %v", got)
			}
			c.SendInts(0, 8, []int{42, -1})
		}
	})
}

func TestSendCopiesPayload(t *testing.T) {
	Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			buf := []float64{1, 2, 3}
			c.SendFloat64s(1, 1, buf)
			buf[0] = 99 // must not affect the receiver
			c.Send(1, 2, nil)
		} else {
			got := c.RecvFloat64s(0, 1)
			c.Recv(0, 2)
			if got[0] != 1 {
				t.Errorf("payload aliased: %v", got)
			}
		}
	})
}

func TestMessageOrderingPerPair(t *testing.T) {
	Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < 100; i++ {
				c.SendFloat64s(1, 5, []float64{float64(i)})
			}
		} else {
			for i := 0; i < 100; i++ {
				got := c.RecvFloat64s(0, 5)
				if got[0] != float64(i) {
					t.Fatalf("out of order: got %v at %d", got, i)
				}
			}
		}
	})
}

func TestEncodeDecodeFloat64s(t *testing.T) {
	xs := []float64{0, 1, -1, math.Pi, math.Inf(1), math.SmallestNonzeroFloat64}
	got := DecodeFloat64s(EncodeFloat64s(xs))
	for i := range xs {
		if got[i] != xs[i] {
			t.Fatalf("roundtrip[%d] = %v want %v", i, got[i], xs[i])
		}
	}
	// NaN roundtrip (bit pattern preserved, compare via IsNaN).
	n := DecodeFloat64s(EncodeFloat64s([]float64{math.NaN()}))
	if !math.IsNaN(n[0]) {
		t.Fatal("NaN lost")
	}
}

func TestTagMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on tag mismatch")
		}
	}()
	n := NewNetwork(1)
	c := n.Comm(0)
	c.Send(0, 1, nil)
	c.Recv(0, 2)
}
