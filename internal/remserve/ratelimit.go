package remserve

import (
	"math"
	"net"
	"sync"
	"time"
)

// Per-client token-bucket rate limiting, off by default. Each client —
// keyed by the host part of RemoteAddr, so every port of one origin
// shares a budget — owns a bucket that refills at RPS tokens per second
// up to Burst; a request spends one token, and an empty bucket answers
// 429 with a Retry-After naming the seconds until the next token
// accrues. The clock is injectable (RateLimit.Now) so the refill
// arithmetic is testable without sleeping, and the bucket map is
// bounded: past DefaultRateLimitClients the fully-refilled (idle)
// buckets are evicted first — an evicted client merely starts over with
// a fresh burst, so eviction can never wrongly throttle anyone.

// RateLimit configures per-client request throttling. The zero value
// disables it entirely.
type RateLimit struct {
	// RPS is the sustained per-client request rate (tokens per second);
	// ≤ 0 disables rate limiting.
	RPS float64
	// Burst is the bucket depth — how many requests a quiet client may
	// issue back to back (≤ 0 means ceil(RPS), at least 1).
	Burst int
	// Now supplies the clock (nil means time.Now); injectable for
	// deterministic tests.
	Now func() time.Time
}

// DefaultRateLimitClients bounds the per-client bucket map.
const DefaultRateLimitClients = 4096

// bucket is one client's token balance at its last refill instant.
type bucket struct {
	tokens float64
	last   time.Time
}

// limiter is the shared token-bucket state behind ServeHTTP's gate.
type limiter struct {
	rps   float64
	burst float64
	now   func() time.Time

	mu      sync.Mutex
	buckets map[string]*bucket
}

// newLimiter builds a limiter, or nil when cfg disables limiting.
func newLimiter(cfg RateLimit) *limiter {
	if cfg.RPS <= 0 {
		return nil
	}
	burst := float64(cfg.Burst)
	if cfg.Burst <= 0 {
		burst = math.Ceil(cfg.RPS)
	}
	if burst < 1 {
		burst = 1
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	return &limiter{
		rps:     cfg.RPS,
		burst:   burst,
		now:     now,
		buckets: make(map[string]*bucket),
	}
}

// allow spends one token from addr's bucket. When the bucket is empty
// it reports ok=false and the whole seconds (rounded up, at least 1 —
// Retry-After has one-second resolution) until a full token accrues.
func (l *limiter) allow(addr string) (ok bool, retryAfter int) {
	key := clientKey(addr)
	t := l.now()
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.buckets[key]
	if b == nil {
		if len(l.buckets) >= DefaultRateLimitClients {
			l.evictLocked(t)
		}
		b = &bucket{tokens: l.burst, last: t}
		l.buckets[key] = b
	} else {
		if dt := t.Sub(b.last).Seconds(); dt > 0 {
			b.tokens = math.Min(l.burst, b.tokens+dt*l.rps)
		}
		b.last = t
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := (1 - b.tokens) / l.rps
	retryAfter = int(math.Ceil(wait))
	if retryAfter < 1 {
		retryAfter = 1
	}
	return false, retryAfter
}

// evictLocked frees map space: first every bucket that has fully
// refilled (idle clients, who lose nothing by re-entering with a fresh
// burst), then — if every client is mid-burst — arbitrary entries, so
// the map can never exceed its bound no matter the traffic shape.
func (l *limiter) evictLocked(t time.Time) {
	for k, b := range l.buckets {
		if b.tokens+t.Sub(b.last).Seconds()*l.rps >= l.burst {
			delete(l.buckets, k)
		}
	}
	for k := range l.buckets {
		if len(l.buckets) < DefaultRateLimitClients {
			break
		}
		delete(l.buckets, k)
	}
}

// clientKey reduces a RemoteAddr to its host so all connections from
// one origin share a bucket; addresses without a port (tests, exotic
// transports) key as-is.
func clientKey(addr string) string {
	if host, _, err := net.SplitHostPort(addr); err == nil {
		return host
	}
	return addr
}
