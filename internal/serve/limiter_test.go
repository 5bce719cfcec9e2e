package serve

import (
	"fmt"
	"testing"
	"time"
)

// TestTenantLimiterHardCap sprays far more than maxTenantBuckets
// distinct active tenants — none idle long enough for evictFull to free
// anything — and asserts the map never exceeds the cap: the
// evict-oldest fallback must hold the line when every bucket is still
// refilling.
func TestTenantLimiterHardCap(t *testing.T) {
	l := newTenantLimiter(1, 8) // burst/rate = 8s: nothing refills below
	now := time.Now()
	for i := 0; i < 3*maxTenantBuckets; i++ {
		// Advance a hair per request so last-seen times are distinct but
		// every bucket stays far inside its refill window.
		now = now.Add(time.Microsecond)
		l.allow(fmt.Sprintf("tenant-%d", i), now)
		if n := len(l.buckets); n > maxTenantBuckets {
			t.Fatalf("bucket map grew to %d (> cap %d) after %d tenants", n, maxTenantBuckets, i+1)
		}
	}
	if n := len(l.buckets); n != maxTenantBuckets {
		t.Errorf("bucket map ended at %d, want exactly the cap %d", n, maxTenantBuckets)
	}
}

// TestTenantLimiterEvictsOldestFirst pins which bucket the fallback
// sacrifices: the least-recently-seen tenant goes, the fresh ones stay.
func TestTenantLimiterEvictsOldestFirst(t *testing.T) {
	l := newTenantLimiter(1, 100)
	now := time.Now()
	for i := 0; i < maxTenantBuckets; i++ {
		now = now.Add(time.Millisecond)
		l.allow(fmt.Sprintf("tenant-%d", i), now)
	}
	// tenant-0 is oldest; refresh it so tenant-1 becomes the victim.
	now = now.Add(time.Millisecond)
	l.allow("tenant-0", now)
	now = now.Add(time.Millisecond)
	l.allow("newcomer", now)
	if _, ok := l.buckets["tenant-0"]; !ok {
		t.Error("recently-seen tenant-0 evicted")
	}
	if _, ok := l.buckets["tenant-1"]; ok {
		t.Error("oldest tenant-1 survived the eviction")
	}
	if _, ok := l.buckets["newcomer"]; !ok {
		t.Error("newcomer not inserted")
	}
}

// TestTenantLimiterStillPrefersRefilled checks the cheap path is tried
// first: with idle refilled buckets available, the fallback must not
// fire (the refilled ones are evicted in bulk instead).
func TestTenantLimiterStillPrefersRefilled(t *testing.T) {
	l := newTenantLimiter(1000, 1) // refill window: 1ms
	now := time.Now()
	for i := 0; i < maxTenantBuckets; i++ {
		l.allow(fmt.Sprintf("tenant-%d", i), now)
	}
	// All buckets are now idle past burst/rate: a new tenant triggers
	// the bulk eviction, leaving plenty of room.
	l.allow("fresh", now.Add(time.Second))
	if n := len(l.buckets); n != 1 {
		t.Errorf("bulk eviction left %d buckets, want 1", n)
	}
}

// TestTenantLimiterSlowRateSaturates: at 1e-11 tokens/s a token takes
// 1e11 s, past time.Duration's range. The second request's Retry-After
// advice saturates to a positive wait instead of overflowing, and
// evictFull's idle bound, burst/rate, saturates too, so the bucket just
// brought up to date by that request stays.
func TestTenantLimiterSlowRateSaturates(t *testing.T) {
	l := newTenantLimiter(1e-11, 1)
	now := time.Now()
	if ok, _ := l.allow("slow", now); !ok {
		t.Fatal("the first request was refused")
	}
	ok, wait := l.allow("slow", now.Add(time.Second))
	if ok || wait <= 0 {
		t.Fatalf("the second request: admitted %v, Retry-After %v, want refused with a positive wait", ok, wait)
	}
	l.evictFull(now.Add(2 * time.Second))
	if _, kept := l.buckets["slow"]; !kept {
		t.Error("evictFull dropped a bucket refilled a second ago")
	}
}
