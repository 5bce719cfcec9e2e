package serve

import (
	"math"
	"sync"
	"time"
)

// maxTenantBuckets bounds the limiter's per-tenant state so an
// adversary spraying unique X-Tenant headers cannot grow the map
// without bound; when full, buckets idle long enough to have refilled
// completely are evicted (an evicted tenant restarts with a full
// burst, which only ever errs in the tenant's favor).
const maxTenantBuckets = 4096

// tenantLimiter admits requests through one token bucket per tenant:
// rate tokens/sec sustained, burst capacity. Tenants are keyed on the
// X-Tenant header; requests without one share the "" bucket.
type tenantLimiter struct {
	rate  float64 // tokens per second
	burst float64 // bucket capacity

	mu      sync.Mutex
	buckets map[string]*bucket
}

// bucket is one tenant's token state; refill is computed lazily from
// the elapsed time since the last admission attempt.
type bucket struct {
	tokens float64
	last   time.Time
}

// newTenantLimiter creates a limiter sustaining rate requests/sec per
// tenant with bursts of burst (0 = ceil(rate), min 1).
func newTenantLimiter(rate float64, burst int) *tenantLimiter {
	b := float64(burst)
	if b <= 0 {
		b = math.Ceil(rate)
	}
	if b < 1 {
		b = 1
	}
	return &tenantLimiter{rate: rate, burst: b, buckets: make(map[string]*bucket)}
}

// allow reports whether tenant may admit one request at time now,
// consuming a token when it may. On denial it also returns how long
// until the bucket refills the missing fraction of a token — the
// Retry-After advice for the rejection.
func (l *tenantLimiter) allow(tenant string, now time.Time) (bool, time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.buckets[tenant]
	if b == nil {
		if len(l.buckets) >= maxTenantBuckets {
			l.evictFull(now)
			if len(l.buckets) >= maxTenantBuckets {
				// Every bucket is still refilling (an adversary
				// spraying fresh tenant names keeps them all active):
				// evict the least-recently-seen one so the cap is hard.
				// The evicted tenant restarts with a full burst, which
				// only ever errs in its favor.
				l.evictOldest()
			}
		}
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[tenant] = b
	} else {
		b.tokens = math.Min(l.burst, b.tokens+now.Sub(b.last).Seconds()*l.rate)
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, saturatingDuration((1-b.tokens)/l.rate, time.Second)
}

// evictFull drops tenants whose buckets have refilled completely —
// idle at least burst/rate seconds — to cap the map. Called with mu
// held.
func (l *tenantLimiter) evictFull(now time.Time) {
	idle := saturatingDuration(l.burst/l.rate, time.Second)
	for k, b := range l.buckets {
		if now.Sub(b.last) >= idle {
			delete(l.buckets, k)
		}
	}
}

// evictOldest drops the single bucket with the oldest last-seen time —
// the fallback that makes maxTenantBuckets a hard cap when evictFull
// finds nothing refilled. O(n) over the map, but it only runs on the
// new-tenant-while-full path, which an honest workload hits rarely and
// an adversary pays for on every request. Called with mu held.
func (l *tenantLimiter) evictOldest() {
	var oldest string
	var found bool
	var oldestAt time.Time
	for k, b := range l.buckets {
		if !found || b.last.Before(oldestAt) {
			oldest, oldestAt, found = k, b.last, true
		}
	}
	if found {
		delete(l.buckets, oldest)
	}
}
