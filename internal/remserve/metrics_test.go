package remserve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/remobs"
)

// scrape fetches /metrics, validates the exposition with the package's
// own checker, and returns the body.
func scrape(t testing.TB, base string) string {
	t.Helper()
	status, hdr, body := get(t, base+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", status)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics Content-Type %q", ct)
	}
	if err := remobs.CheckExposition(body); err != nil {
		t.Fatalf("GET /metrics exposition: %v\n%s", err, body)
	}
	return string(body)
}

// sampleValue extracts one sample's value from an exposition body;
// series is the exact rendered form ("name" or `name{a="b",…}` with
// labels sorted by name). Returns 0, false when absent.
func sampleValue(body, series string) (float64, bool) {
	for _, line := range strings.Split(body, "\n") {
		rest, ok := strings.CutPrefix(line, series+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			return 0, false
		}
		return v, true
	}
	return 0, false
}

// TestMetricsEndToEnd drives mixed traffic through an instrumented
// server and asserts the scrape is valid and the cube advances: the
// per-(endpoint, wire, code) request counters, the latency histogram
// counts and the store-level query counter all move by exactly the
// traffic sent.
func TestMetricsEndToEnd(t *testing.T) {
	obs := remobs.New(0)
	ss, _, keys := newServedShards(t, 5, 2)
	ss.SetObserver(obs)
	srv := httptest.NewServer(New(ShardedBackend(ss), Options{Observer: obs}))
	defer srv.Close()

	before := scrape(t, srv.URL)

	atJSON := 3
	for i := 0; i < atJSON; i++ {
		status, _, _ := get(t, fmt.Sprintf("%s/at?key=%s&x=1&y=1&z=1", srv.URL, keys[0]))
		if status != http.StatusOK {
			t.Fatalf("GET /at: status %d", status)
		}
	}
	atBinary := 2
	for i := 0; i < atBinary; i++ {
		body := AppendBatchRequest(nil, keys[1], testPoints())
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/at", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", WireContentType)
		req.Header.Set("Accept", WireContentType)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /at (binary): status %d", resp.StatusCode)
		}
	}
	if status, _, _ := get(t, srv.URL+"/at?key=no:such:key&x=1&y=1&z=1"); status != http.StatusNotFound {
		t.Fatalf("GET /at unknown key: status %d", status)
	}

	after := scrape(t, srv.URL)
	delta := func(series string) float64 {
		b, _ := sampleValue(before, series)
		a, ok := sampleValue(after, series)
		if !ok {
			t.Fatalf("series %s missing from scrape:\n%s", series, after)
		}
		return a - b
	}
	if got := delta(`rem_http_requests_total{code="2xx",endpoint="at",wire="json"}`); got != float64(atJSON) {
		t.Errorf("json /at 2xx advanced by %g, want %d", got, atJSON)
	}
	if got := delta(`rem_http_requests_total{code="2xx",endpoint="at",wire="binary"}`); got != float64(atBinary) {
		t.Errorf("binary /at 2xx advanced by %g, want %d", got, atBinary)
	}
	if got := delta(`rem_http_requests_total{code="4xx",endpoint="at",wire="json"}`); got != 1 {
		t.Errorf("json /at 4xx advanced by %g, want 1", got)
	}
	if got := delta(`rem_http_request_seconds_count{endpoint="at",wire="json"}`); got != float64(atJSON)+1 {
		t.Errorf("/at json latency count advanced by %g, want %d", got, atJSON+1)
	}
	// Store-level: each GET /at is one logical query; each binary batch
	// adds one per point.
	wantQueries := float64(atJSON + atBinary*len(testPoints()))
	if got := delta(`rem_store_queries_total`); got != wantQueries {
		t.Errorf("rem_store_queries_total advanced by %g, want %g", got, wantQueries)
	}
	// The pruning-ratio gauge is present and sane on a published store.
	if v, ok := sampleValue(after, `rem_store_coverindex_candidate_ratio`); !ok || v <= 0 || v > 1 {
		t.Errorf("rem_store_coverindex_candidate_ratio = %g, ok=%v; want (0, 1]", v, ok)
	}
}

// TestMetricsWithoutObserver pins the read-only posture: a server built
// without an Observer does not reveal a /metrics surface.
func TestMetricsWithoutObserver(t *testing.T) {
	ss, _, _ := newServedShards(t, 3, 1)
	srv := httptest.NewServer(New(ShardedBackend(ss), Options{}))
	defer srv.Close()
	if status, _, _ := get(t, srv.URL+"/metrics"); status != http.StatusNotFound {
		t.Fatalf("GET /metrics without observer: status %d, want 404", status)
	}
}

// TestMetricsConcurrentScrape hammers the instrumented query path from
// several goroutines while continuously scraping and re-validating the
// exposition — the -race run of this test is the data-race check, and
// the checker's histogram invariant (+Inf == _count per scrape) is the
// torn-read check.
func TestMetricsConcurrentScrape(t *testing.T) {
	obs := remobs.New(0)
	ss, _, keys := newServedShards(t, 5, 2)
	ss.SetObserver(obs)
	srv := New(ShardedBackend(ss), Options{Observer: obs})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodGet,
				fmt.Sprintf("/at?key=%s&x=1&y=1&z=1", keys[g%len(keys)]), nil)
			for {
				select {
				case <-stop:
					return
				default:
				}
				w := httptest.NewRecorder()
				srv.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					t.Errorf("GET /at: status %d", w.Code)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("GET /metrics: status %d", w.Code)
		}
		if err := remobs.CheckExposition(w.Body.Bytes()); err != nil {
			t.Fatalf("scrape %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

// nullRW is a minimal ResponseWriter with a reusable header map, so an
// allocation test sees only the handler's own allocations.
type nullRW struct {
	h    http.Header
	code int
}

func (w *nullRW) Header() http.Header         { return w.h }
func (w *nullRW) Write(p []byte) (int, error) { return len(p), nil }
func (w *nullRW) WriteHeader(c int)           { w.code = c }

// rewindBody is a reusable request body: Close is a no-op and rewind
// seeks back to the start, so one request value can be served many
// times without per-iteration allocation.
type rewindBody struct{ r bytes.Reader }

func (b *rewindBody) Read(p []byte) (int, error) { return b.r.Read(p) }
func (b *rewindBody) Close() error               { return nil }
func (b *rewindBody) rewind()                    { b.r.Seek(0, io.SeekStart) }

// TestInstrumentedServeZeroAlloc pins the acceptance bound: with an
// Observer attached (counter cube, latency histograms, pooled status
// recorder), GET /at and POST /at over the binary wire still allocate
// nothing per request after warm-up.
func TestInstrumentedServeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	obs := remobs.New(0)
	ss, _, keys := newServedShards(t, 5, 2)
	ss.SetObserver(obs)
	srv := New(ShardedBackend(ss), Options{Observer: obs})

	getReq := httptest.NewRequest(http.MethodGet,
		fmt.Sprintf("/at?key=%s&x=1&y=1&z=1", keys[0]), nil)
	body := &rewindBody{}
	body.r.Reset(AppendBatchRequest(nil, keys[1], testPoints()))
	postReq := httptest.NewRequest(http.MethodPost, "/at", nil)
	postReq.Body = body
	postReq.ContentLength = int64(body.r.Size())
	postReq.Header.Set("Content-Type", WireContentType)
	postReq.Header.Set("Accept", WireContentType)

	w := &nullRW{h: make(http.Header)}
	serveGet := func() {
		w.code = 0
		srv.ServeHTTP(w, getReq)
		if w.code != 0 && w.code != http.StatusOK {
			t.Fatalf("GET /at: status %d", w.code)
		}
	}
	servePost := func() {
		w.code = 0
		body.rewind()
		srv.ServeHTTP(w, postReq)
		if w.code != 0 && w.code != http.StatusOK {
			t.Fatalf("POST /at: status %d", w.code)
		}
	}
	for i := 0; i < 50; i++ {
		serveGet()
		servePost()
	}
	if allocs := testing.AllocsPerRun(200, serveGet); allocs != 0 {
		t.Errorf("instrumented GET /at: %v allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, servePost); allocs != 0 {
		t.Errorf("instrumented POST /at (binary): %v allocs/op, want 0", allocs)
	}
}
