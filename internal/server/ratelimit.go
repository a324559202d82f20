package server

import (
	"math"
	"sync"
	"time"
)

// rateLimiter is a per-tenant token bucket: each tenant accrues rate
// tokens per second up to burst, and each request costs one token. The
// clock is injectable so tests drive it deterministically. A nil
// limiter allows everything.
//
// Tenant IDs come from request bodies, so the bucket map is kept
// bounded: a bucket that has refilled to burst behaves exactly like an
// absent one, and such buckets are swept out whenever the map has
// doubled since the last sweep (amortised O(1) per new tenant).
type rateLimiter struct {
	mu      sync.Mutex
	rate    float64 // tokens per second
	burst   float64
	now     func() time.Time
	buckets map[string]*bucket
	sweepAt int // map size that triggers the next sweep
}

// minSweep is the smallest map size worth sweeping.
const minSweep = 64

type bucket struct {
	tokens float64
	last   time.Time
}

func newRateLimiter(rate, burst float64, now func() time.Time) *rateLimiter {
	if rate <= 0 {
		return nil
	}
	if burst < 1 {
		burst = 1
	}
	if now == nil {
		now = time.Now
	}
	return &rateLimiter{rate: rate, burst: burst, now: now, buckets: map[string]*bucket{}, sweepAt: minSweep}
}

// Allow spends one token from tenant's bucket. When the bucket is
// empty it reports false and how long until a token accrues.
func (l *rateLimiter) Allow(tenant string) (ok bool, retryAfter time.Duration) {
	if l == nil {
		return true, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	t := l.now()
	b := l.buckets[tenant]
	if b == nil {
		if len(l.buckets) >= l.sweepAt {
			l.sweep(t)
			l.sweepAt = max(2*len(l.buckets), minSweep)
		}
		b = &bucket{tokens: l.burst, last: t}
		l.buckets[tenant] = b
	} else {
		dt := t.Sub(b.last).Seconds()
		if dt > 0 {
			b.tokens = math.Min(l.burst, b.tokens+dt*l.rate)
			b.last = t
		}
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := (1 - b.tokens) / l.rate
	return false, time.Duration(math.Ceil(wait * float64(time.Second)))
}

// sweep drops every bucket that has refilled to burst by time t. The
// caller holds l.mu.
func (l *rateLimiter) sweep(t time.Time) {
	for tenant, b := range l.buckets {
		if b.tokens+t.Sub(b.last).Seconds()*l.rate >= l.burst {
			delete(l.buckets, tenant)
		}
	}
}
