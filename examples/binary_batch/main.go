// Binary batch wire: the compact query protocol on the HTTP hot path.
// A synthetic 4-key, 2-shard store is served over HTTP and queried over
// both wires; the walkthrough shows:
//
//  1. content negotiation: Content-Type: application/x-rem-batch selects
//     the binary request codec on POST /at, Accept selects the binary
//     response codec — the 2×2 request/response matrix is all valid, and
//     clients that say nothing keep getting JSON;
//  2. rule 8 on the binary wire: the response value block carries raw
//     float64 bits, bit-identical to the JSON answers and to direct
//     library calls — and NaN payloads survive, where JSON degrades a
//     non-finite value to null;
//  3. wire economics: a 512-point binary request is ~24 bytes/point and
//     decodes with zero parsing — the reason BENCH_rem.json's binary
//     serving cost sits near the library floor while JSON pays ~7× for
//     float text codec work;
//  4. the compressed snapshot: Accept-Encoding: gzip on GET /snapshot,
//     same strong ETag, decompressed bytes ≡ Map.WriteTo;
//  5. per-client rate limiting: a token-bucket budget (here with an
//     injected clock, so the demo is deterministic) answers 429 +
//     Retry-After past the burst, and /healthz stays exempt.
package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/geom"
	"repro/internal/rem"
	"repro/internal/remserve"
	"repro/internal/remshard"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "binary_batch:", err)
		os.Exit(1)
	}
}

// predict is a deterministic synthetic field: value depends on position
// and key only, so every build path produces identical maps and the
// wire comparisons below are exact by construction.
func predict(centers []geom.Vec3, keyIdx int) ([]float64, error) {
	out := make([]float64, len(centers))
	for i, p := range centers {
		out[i] = -55 - 1.5*p.X - 2*p.Y - 3*p.Z - 4*float64(keyIdx)
	}
	return out, nil
}

func run() error {
	// 1. A 4-key vocabulary over 2 shards, built from the synthetic
	// field and served over HTTP.
	keys := []string{"AA:00", "AA:01", "AA:02", "AA:03"}
	vol := geom.Cuboid{Min: geom.V(0, 0, 0), Max: geom.V(8, 6, 4)}
	ss, err := remshard.New(keys, remshard.Config{
		Shards: 2, Volume: vol, Resolution: [3]int{16, 12, 8},
	})
	if err != nil {
		return err
	}
	if _, err := ss.Rebuild([]int{0, 1, 2, 3}, predict, rem.BuildOptions{}); err != nil {
		return err
	}

	// A deterministic clock for the rate-limit demo below: the example
	// advances it by hand, so the 429s land on exactly the same requests
	// every run. The mutex orders the advance against handler reads.
	var clockMu sync.Mutex
	clock := time.Unix(0, 0)
	now := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return clock
	}
	advance := func(d time.Duration) {
		clockMu.Lock()
		clock = clock.Add(d)
		clockMu.Unlock()
	}
	srv := remserve.New(remserve.ShardedBackend(ss), remserve.Options{
		RateLimit: remserve.RateLimit{RPS: 1, Burst: 24, Now: now},
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go func() {
		if err := srv.Serve(l); err != nil {
			fmt.Fprintln(os.Stderr, "binary_batch: serve:", err)
		}
	}()
	base := "http://" + l.Addr().String()
	client := &http.Client{Timeout: 5 * time.Second}
	fmt.Printf("serving %d keys over %d shards\n", len(keys), ss.NumShards())

	// The probe batch: a diagonal walk through the volume.
	const n = 512
	pts := make([]geom.Vec3, n)
	for i := range pts {
		f := float64(i) / float64(n-1)
		pts[i] = geom.V(8*f, 6*f, 4*f)
	}

	// 2. The same batch over both wires. JSON first (the default no
	// client has to opt out of)…
	jpts := make([][3]float64, n)
	for i, p := range pts {
		jpts[i] = [3]float64{p.X, p.Y, p.Z}
	}
	jreq, err := json.Marshal(map[string]any{"key": keys[0], "points": jpts})
	if err != nil {
		return err
	}
	r, err := client.Post(base+"/at", "application/json", bytes.NewReader(jreq))
	if err != nil {
		return err
	}
	var jresp struct {
		Values  []*float64 `json:"values"`
		Version uint64     `json:"version"`
	}
	err = json.NewDecoder(r.Body).Decode(&jresp)
	r.Body.Close()
	if err != nil {
		return err
	}

	// …then binary: Content-Type names the request codec, Accept the
	// response codec.
	breq := remserve.AppendBatchRequest(nil, keys[0], pts)
	req, err := http.NewRequest(http.MethodPost, base+"/at", bytes.NewReader(breq))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", remserve.WireContentType)
	req.Header.Set("Accept", remserve.WireContentType)
	r, err = client.Do(req)
	if err != nil {
		return err
	}
	braw, err := io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil {
		return err
	}
	if ct := r.Header.Get("Content-Type"); ct != remserve.WireContentType {
		return fmt.Errorf("binary response Content-Type %q", ct)
	}
	bvals, bver, err := remserve.DecodeBatchResponse(braw)
	if err != nil {
		return err
	}

	// Rule 8, three ways: binary ≡ JSON ≡ direct library, bit for bit.
	direct := make([]float64, n)
	if _, err := ss.AtBatchInto(direct, keys[0], pts); err != nil {
		return err
	}
	for i := range bvals {
		if jresp.Values[i] == nil || math.Float64bits(bvals[i]) != math.Float64bits(*jresp.Values[i]) ||
			math.Float64bits(bvals[i]) != math.Float64bits(direct[i]) {
			return fmt.Errorf("rule 8 violated at point %d", i)
		}
	}
	fmt.Printf("rule 8 over the wire: %d values, binary ≡ JSON ≡ direct library (v%d)\n", n, bver)

	// 3. Wire economics: bytes per point on each wire.
	fmt.Printf("request:  JSON %5d bytes (%.1f/pt)   binary %5d bytes (%.1f/pt)\n",
		len(jreq), float64(len(jreq))/n, len(breq), float64(len(breq))/n)
	fmt.Printf("response: binary %d bytes — the value block is raw IEEE-754, no text codec\n", len(braw))

	// 4. The compressed snapshot: same strong ETag as identity, and the
	// decompressed bytes are exactly the snapshot codec.
	r, err = client.Get(base + "/snapshot")
	if err != nil {
		return err
	}
	identity, err := io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil {
		return err
	}
	etag := r.Header.Get("ETag")
	req, err = http.NewRequest(http.MethodGet, base+"/snapshot", nil)
	if err != nil {
		return err
	}
	// Setting Accept-Encoding by hand disables Go's transparent
	// decompression: the body below is the raw gzip stream.
	req.Header.Set("Accept-Encoding", "gzip")
	r, err = client.Do(req)
	if err != nil {
		return err
	}
	compressed, err := io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil {
		return err
	}
	if r.Header.Get("ETag") != etag {
		return fmt.Errorf("gzip ETag %q differs from identity %q", r.Header.Get("ETag"), etag)
	}
	zr, err := gzip.NewReader(bytes.NewReader(compressed))
	if err != nil {
		return err
	}
	plain, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	if !bytes.Equal(plain, identity) {
		return fmt.Errorf("decompressed snapshot differs from identity bytes")
	}
	fmt.Printf("snapshot: %d bytes identity, %d gzipped (same ETag %s); decompressed ≡ codec\n",
		len(identity), len(compressed), etag)

	// 5. Rate limiting: the 24-token burst is spent (the requests above
	// used some of it), then every further request is refused with a
	// Retry-After until the injected clock refills the bucket.
	var served, throttled int
	var retryAfter string
	for i := 0; i < 30; i++ {
		r, err := client.Get(base + "/at?key=" + keys[0] + "&x=1&y=1&z=1")
		if err != nil {
			return err
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		switch r.StatusCode {
		case http.StatusOK:
			served++
		case http.StatusTooManyRequests:
			throttled++
			retryAfter = r.Header.Get("Retry-After")
		default:
			return fmt.Errorf("rate-limit probe: %s", r.Status)
		}
	}
	fmt.Printf("rate limit: %d served, %d × 429 (Retry-After %s s); /healthz exempt: ", served, throttled, retryAfter)
	r, err = client.Get(base + "/healthz")
	if err != nil {
		return err
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	fmt.Println(r.Status)

	// Advance the injected clock: tokens refill, queries serve again.
	advance(10 * time.Second)
	r, err = client.Get(base + "/at?key=" + keys[0] + "&x=1&y=1&z=1")
	if err != nil {
		return err
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	fmt.Printf("after a 10 s clock advance: %s — the bucket refilled\n", r.Status)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}
