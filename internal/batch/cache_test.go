package batch

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestLRUGetOrCompute(t *testing.T) {
	c := NewLRU(4)
	v, computed, err := c.GetOrCompute("a", func() (any, error) { return 42, nil })
	if err != nil || !computed || v.(int) != 42 {
		t.Fatalf("first demand: v=%v computed=%v err=%v", v, computed, err)
	}
	v, computed, err = c.GetOrCompute("a", func() (any, error) { return 0, nil })
	if err != nil || computed || v.(int) != 42 {
		t.Fatalf("hit: v=%v computed=%v err=%v", v, computed, err)
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("stats = %d/%d", hits, misses)
	}
}

func TestLRUSingleFlight(t *testing.T) {
	c := NewLRU(4)
	var calls atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := c.GetOrCompute("key", func() (any, error) {
				calls.Add(1)
				return "x", nil
			})
			if err != nil || v.(string) != "x" {
				t.Errorf("v=%v err=%v", v, err)
			}
		}()
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("computed %d times, want 1", n)
	}
}

func TestLRUErrorNotCached(t *testing.T) {
	c := NewLRU(4)
	boom := errors.New("boom")
	if _, _, err := c.GetOrCompute("k", func() (any, error) { return nil, boom }); err != boom {
		t.Fatalf("err = %v", err)
	}
	if c.Len() != 0 {
		t.Fatalf("failed entry cached (len=%d)", c.Len())
	}
	v, computed, err := c.GetOrCompute("k", func() (any, error) { return 7, nil })
	if err != nil || !computed || v.(int) != 7 {
		t.Fatalf("retry: v=%v computed=%v err=%v", v, computed, err)
	}
}

func TestLRUEviction(t *testing.T) {
	c := NewLRU(2)
	for i := 0; i < 3; i++ {
		c.GetOrCompute(fmt.Sprintf("k%d", i), func() (any, error) { return i, nil })
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	// k0 was least recently used and must be gone.
	_, computed, _ := c.GetOrCompute("k0", func() (any, error) { return -1, nil })
	if !computed {
		t.Fatal("k0 survived eviction")
	}
	// k2 must still be cached.
	v, computed, _ := c.GetOrCompute("k2", func() (any, error) { return -1, nil })
	if computed || v.(int) != 2 {
		t.Fatalf("k2 evicted (v=%v computed=%v)", v, computed)
	}
}

// Len returns the current entry count.
func (c *LRU) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
