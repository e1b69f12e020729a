package remserve

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"
)

// fakeClock is the injectable limiter clock: tests advance it by hand,
// so refill arithmetic is exact and no test sleeps.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestLimiter(rps float64, burst int, clk *fakeClock) *limiter {
	return newLimiter(RateLimit{RPS: rps, Burst: burst, Now: clk.now})
}

// TestLimiterTokenBucket pins the bucket arithmetic: a fresh client
// spends its burst back to back, the next request is refused with the
// exact whole-second Retry-After, and refill restores one token per
// 1/RPS elapsed.
func TestLimiterTokenBucket(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	l := newTestLimiter(2, 3, clk) // 2 tokens/s, burst 3

	for i := 0; i < 3; i++ {
		if ok, _ := l.allow("10.0.0.1:1111"); !ok {
			t.Fatalf("burst request %d refused", i)
		}
	}
	ok, retry := l.allow("10.0.0.1:1111")
	if ok {
		t.Fatal("request over burst admitted")
	}
	// Empty bucket at 2 tokens/s: one token in 0.5 s → Retry-After
	// rounds up to 1.
	if retry != 1 {
		t.Fatalf("Retry-After %d, want 1", retry)
	}

	// Half a token accrues in 0.25 s — still refused (same host, any
	// port, shares the bucket).
	clk.advance(250 * time.Millisecond)
	if ok, _ := l.allow("10.0.0.1:2222"); ok {
		t.Fatal("request admitted with only half a token refilled")
	}
	// The other half accrues by 0.5 s — exactly one request serves.
	clk.advance(250 * time.Millisecond)
	if ok, _ := l.allow("10.0.0.1:1111"); !ok {
		t.Fatal("request refused with a full token refilled")
	}
	if ok, _ := l.allow("10.0.0.1:1111"); ok {
		t.Fatal("second request admitted on one refilled token")
	}
}

// TestLimiterSharedHostBucket pins the keying: every port of one origin
// host shares a bucket; a different host gets its own.
func TestLimiterSharedHostBucket(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	l := newTestLimiter(1, 2, clk)

	if ok, _ := l.allow("10.0.0.1:1111"); !ok {
		t.Fatal("first request refused")
	}
	if ok, _ := l.allow("10.0.0.1:2222"); !ok {
		t.Fatal("second request (same host, new port) refused within burst")
	}
	if ok, _ := l.allow("10.0.0.1:3333"); ok {
		t.Fatal("third same-host request admitted over the shared burst")
	}
	if ok, _ := l.allow("10.0.0.2:1111"); !ok {
		t.Fatal("different host throttled by a stranger's bucket")
	}

	// Refill: 1 token/s, so after 1 s the first host serves exactly one
	// more request.
	clk.advance(time.Second)
	if ok, _ := l.allow("10.0.0.1:1111"); !ok {
		t.Fatal("refilled token refused")
	}
	if ok, _ := l.allow("10.0.0.1:1111"); ok {
		t.Fatal("second request admitted with only one token refilled")
	}
}

// TestLimiterEviction pins the map bound: the bucket map never exceeds
// DefaultRateLimitClients, idle (fully refilled) buckets are evicted
// first, and an evicted client re-enters with a fresh burst rather than
// an inherited debt.
func TestLimiterEviction(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	l := newTestLimiter(1, 1, clk)
	client := func(i int) string { return fmt.Sprintf("10.%d.%d.1:1", i>>8, i&0xff) }

	for i := 0; i < DefaultRateLimitClients; i++ {
		l.allow(client(i))
	}
	if len(l.buckets) != DefaultRateLimitClients {
		t.Fatalf("%d buckets, want %d", len(l.buckets), DefaultRateLimitClients)
	}
	// Every bucket refills within 1 s; one more client must evict the
	// idle ones rather than grow the map.
	clk.advance(2 * time.Second)
	if ok, _ := l.allow(client(DefaultRateLimitClients)); !ok {
		t.Fatal("new client refused")
	}
	if len(l.buckets) != 1 {
		t.Fatalf("%d buckets after idle eviction, want 1", len(l.buckets))
	}
	// Even mid-burst (nothing refilled), the bound holds via arbitrary
	// eviction.
	for i := 0; i <= DefaultRateLimitClients; i++ {
		l.allow(client(DefaultRateLimitClients + 1 + i))
	}
	if len(l.buckets) > DefaultRateLimitClients {
		t.Fatalf("%d buckets after mid-burst eviction, want ≤ %d", len(l.buckets), DefaultRateLimitClients)
	}
	// A client evicted with an empty bucket starts over with a full one
	// (no time has passed, so a kept bucket would refuse).
	for i := 0; i <= DefaultRateLimitClients; i++ {
		c := client(DefaultRateLimitClients + 1 + i)
		if _, kept := l.buckets[clientKey(c)]; kept {
			continue
		}
		if ok, _ := l.allow(c); !ok {
			t.Fatal("evicted client refused: inherited its old debt")
		}
		return
	}
	t.Fatal("mid-burst eviction evicted no client")
}

// TestRateLimitOverHTTP drives the limiter through the full server: a
// burst of requests from one client serves exactly Burst of them, the
// rest get 429 with a Retry-After header, /healthz stays exempt, and a
// server without RateLimit is unthrottled.
func TestRateLimitOverHTTP(t *testing.T) {
	ss, _, keys := newServedShards(t, 4, 2)
	clk := &fakeClock{t: time.Unix(1000, 0)}
	srv := httptest.NewServer(New(ShardedBackend(ss), Options{
		RateLimit: RateLimit{RPS: 1, Burst: 3, Now: clk.now},
	}))
	defer srv.Close()

	url := srv.URL + "/at?key=" + keys[0] + "&x=1&y=1"
	var served, throttled int
	for i := 0; i < 6; i++ {
		r, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		switch r.StatusCode {
		case http.StatusOK:
			served++
		case http.StatusTooManyRequests:
			throttled++
			ra, err := strconv.Atoi(r.Header.Get("Retry-After"))
			if err != nil || ra < 1 {
				t.Fatalf("429 Retry-After %q, want a positive integer", r.Header.Get("Retry-After"))
			}
		default:
			t.Fatalf("status %d", r.StatusCode)
		}
	}
	if served != 3 || throttled != 3 {
		t.Fatalf("served %d / throttled %d, want 3 / 3", served, throttled)
	}

	// /healthz is exempt: readiness probes keep answering while the
	// client is throttled.
	for i := 0; i < 5; i++ {
		r, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode == http.StatusTooManyRequests {
			t.Fatal("/healthz throttled")
		}
	}

	// The clock refills one token per second.
	clk.advance(time.Second)
	r, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("refilled request: status %d", r.StatusCode)
	}

	// Zero-value Options: no limiter at all.
	free := httptest.NewServer(New(ShardedBackend(ss), Options{}))
	defer free.Close()
	for i := 0; i < 20; i++ {
		r, err := http.Get(free.URL + "/at?key=" + keys[0] + "&x=1&y=1")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("unlimited server: status %d on request %d", r.StatusCode, i)
		}
	}
}

// TestSnapshotGzip pins the compressed download: Accept-Encoding: gzip
// answers a gzip stream whose decompressed bytes are exactly Map.WriteTo
// of the serving generation, under the same strong ETag as the identity
// encoding (If-None-Match revalidation behaves identically), with
// Vary: Accept-Encoding on every response.
func TestSnapshotGzip(t *testing.T) {
	ss, _, _ := newServedShards(t, 6, 2)
	srv := httptest.NewServer(New(ShardedBackend(ss), Options{}))
	defer srv.Close()

	// Identity download first: the reference bytes and ETag.
	status, idHdr, identity := get(t, srv.URL+"/snapshot")
	if status != http.StatusOK {
		t.Fatalf("identity GET /snapshot: status %d", status)
	}
	if idHdr.Get("Content-Encoding") != "" {
		t.Fatalf("identity response Content-Encoding %q, want none", idHdr.Get("Content-Encoding"))
	}
	if v := idHdr.Get("Vary"); v != "Accept-Encoding" {
		t.Fatalf("identity Vary %q, want Accept-Encoding", v)
	}
	etag := idHdr.Get("ETag")

	// Compressed download. Setting Accept-Encoding by hand disables Go's
	// transparent decompression, so the body is the raw gzip stream.
	req, err := http.NewRequest(http.MethodGet, srv.URL+"/snapshot", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept-Encoding", "gzip")
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	compressed, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("gzip GET /snapshot: status %d", r.StatusCode)
	}
	if ce := r.Header.Get("Content-Encoding"); ce != "gzip" {
		t.Fatalf("Content-Encoding %q, want gzip", ce)
	}
	if v := r.Header.Get("Vary"); v != "Accept-Encoding" {
		t.Fatalf("gzip Vary %q, want Accept-Encoding", v)
	}
	if got := r.Header.Get("ETag"); got != etag {
		t.Fatalf("gzip ETag %q differs from identity %q", got, etag)
	}
	if len(compressed) >= len(identity) {
		t.Fatalf("gzip body %d bytes, identity %d — no compression happened", len(compressed), len(identity))
	}
	zr, err := gzip.NewReader(bytes.NewReader(compressed))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if err := zr.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, identity) {
		t.Fatalf("decompressed snapshot differs from identity bytes (%d vs %d)", len(plain), len(identity))
	}

	// Revalidation works identically on the compressed variant.
	req.Header.Set("If-None-Match", etag)
	r, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("gzip revalidation: status %d, %d body bytes (want 304, 0)", r.StatusCode, len(body))
	}
}
