package server

import (
	"fmt"
	"testing"
	"time"
)

type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestRateLimiterBurstAndRefill(t *testing.T) {
	clock := &fakeClock{t: time.Unix(0, 0)}
	l := newRateLimiter(2, 3, clock.now) // 2 tokens/s, burst 3
	for i := 0; i < 3; i++ {
		if ok, _ := l.Allow("t"); !ok {
			t.Fatalf("burst request %d denied", i)
		}
	}
	ok, retry := l.Allow("t")
	if ok {
		t.Fatal("4th request allowed, bucket should be empty")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retryAfter = %s, want (0, 1s] at 2 tokens/s", retry)
	}
	clock.advance(retry)
	if ok, _ := l.Allow("t"); !ok {
		t.Fatal("denied after waiting the advertised retryAfter")
	}
	// Refill caps at burst.
	clock.advance(time.Hour)
	allowed := 0
	for i := 0; i < 10; i++ {
		if ok, _ := l.Allow("t"); ok {
			allowed++
		}
	}
	if allowed != 3 {
		t.Fatalf("after long idle, %d requests allowed, want burst=3", allowed)
	}
}

func TestRateLimiterTenantsIndependent(t *testing.T) {
	clock := &fakeClock{t: time.Unix(0, 0)}
	l := newRateLimiter(1, 1, clock.now)
	if ok, _ := l.Allow("a"); !ok {
		t.Fatal("a's first request denied")
	}
	if ok, _ := l.Allow("a"); ok {
		t.Fatal("a's second request allowed")
	}
	if ok, _ := l.Allow("b"); !ok {
		t.Fatal("b throttled by a's spending")
	}
}

func TestRateLimiterDisabled(t *testing.T) {
	var l *rateLimiter // rate ≤ 0 yields nil: everything allowed
	if l = newRateLimiter(0, 5, nil); l != nil {
		t.Fatal("rate 0 should disable the limiter")
	}
	for i := 0; i < 100; i++ {
		if ok, _ := l.Allow("t"); !ok {
			t.Fatal("nil limiter denied a request")
		}
	}
}

// TestRateLimiterBucketsBounded feeds 10,000 distinct tenants through a
// limiter whose clock advances 1ms per request: each bucket refills to
// burst within a second, so the sweep keeps the map near the number of
// tenants seen in the last second instead of growing with every ID.
func TestRateLimiterBucketsBounded(t *testing.T) {
	clock := &fakeClock{t: time.Unix(0, 0)}
	l := newRateLimiter(1, 1, clock.now)
	peak := 0
	for i := 0; i < 10000; i++ {
		if ok, _ := l.Allow(fmt.Sprintf("tenant-%d", i)); !ok {
			t.Fatalf("tenant %d's first request denied", i)
		}
		peak = max(peak, len(l.buckets))
		clock.advance(time.Millisecond)
	}
	// About 1000 buckets are still refilling at any time; the sweep
	// runs once the map doubles past what the last sweep kept.
	if peak > 2100 {
		t.Errorf("bucket map peaked at %d entries for 10,000 tenants, want ≤ 2100", peak)
	}
}

// TestRateLimiterSweepKeepsDecisions replays a mixed request sequence
// against two limiters, one of them swept before every request: a
// bucket refilled to burst acts exactly like an absent one, so every
// Allow decision and retryAfter must match.
func TestRateLimiterSweepKeepsDecisions(t *testing.T) {
	clockA := &fakeClock{t: time.Unix(0, 0)}
	clockB := &fakeClock{t: time.Unix(0, 0)}
	a := newRateLimiter(2, 3, clockA.now)
	b := newRateLimiter(2, 3, clockB.now)
	steps := []time.Duration{0, 0, 0, 0, 100 * time.Millisecond, 500 * time.Millisecond, 0, 2 * time.Second, time.Hour, 0, 0, 0, 0, 300 * time.Millisecond}
	for round := 0; round < 3; round++ {
		for i, d := range steps {
			clockA.advance(d)
			clockB.advance(d)
			tenant := fmt.Sprintf("t%d", (i+round)%3)
			b.mu.Lock()
			b.sweep(clockB.now())
			b.mu.Unlock()
			okA, retryA := a.Allow(tenant)
			okB, retryB := b.Allow(tenant)
			if okA != okB || retryA != retryB {
				t.Fatalf("round %d step %d (%s): unswept (%v, %s) vs swept (%v, %s)", round, i, tenant, okA, retryA, okB, retryB)
			}
		}
	}
}
