package batch

import (
	"container/list"
	"sync"
)

// LRU is the engine's concurrency-safe least-recently-used cache for
// immutable expensive state (basis sets keyed by geometry signature,
// pipeline plans keyed by family).
// Lookups of missing keys compute the value exactly once even under
// concurrent demand for the same key (single-flight): late arrivals
// block on the first caller's computation instead of duplicating it,
// which is what makes concurrent Extract calls over a repeated-template
// corpus do one basis build in total.
type LRU struct {
	mu   sync.Mutex
	cap  int
	ll   *list.List // front = most recent; values are *lruEntry
	m    map[string]*list.Element
	hits uint64
	miss uint64
}

// lruEntry is one cache slot; ready is closed once val/err are set.
type lruEntry struct {
	key   string
	ready chan struct{}
	val   any
	err   error
}

// NewLRU creates a cache bounded to capacity entries (minimum 1).
func NewLRU(capacity int) *LRU {
	if capacity < 1 {
		capacity = 1
	}
	return &LRU{cap: capacity, ll: list.New(), m: make(map[string]*list.Element)}
}

// GetOrCompute returns the cached value for key, computing it with f on
// the first demand. Concurrent callers for the same key share one
// computation. Failed computations are not cached; the error is returned
// to every caller that joined the attempt, and the next demand retries.
// computed reports whether this call ran f itself.
func (c *LRU) GetOrCompute(key string, f func() (any, error)) (val any, computed bool, err error) {
	c.mu.Lock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*lruEntry)
		c.hits++
		c.mu.Unlock()
		<-e.ready
		return e.val, false, e.err
	}
	c.miss++
	e := &lruEntry{key: key, ready: make(chan struct{})}
	el := c.ll.PushFront(e)
	c.m[key] = el
	if c.ll.Len() > c.cap {
		c.evictOldestReadyLocked()
	}
	c.mu.Unlock()

	e.val, e.err = f()
	close(e.ready)
	if e.err != nil {
		// Do not cache failures.
		c.mu.Lock()
		if cur, ok := c.m[key]; ok && cur == el {
			c.ll.Remove(el)
			delete(c.m, key)
		}
		c.mu.Unlock()
	}
	return e.val, true, e.err
}

// evictOldestReadyLocked drops the least recently used entry whose
// computation has completed (in-flight entries have waiters and must
// survive until their ready channel closes).
func (c *LRU) evictOldestReadyLocked() {
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*lruEntry)
		select {
		case <-e.ready:
			c.ll.Remove(el)
			delete(c.m, e.key)
			return
		default:
		}
	}
}

// Len returns the current entry count.
func (c *LRU) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns cumulative hit and miss counts.
func (c *LRU) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.miss
}
