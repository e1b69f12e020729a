package remwal_test

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/remserve"
	"repro/internal/remstore"
	"repro/internal/remwal"
)

// TestPoisonedLogObserveIs503: once a torn append poisons the WAL, POST
// /observe answers 503 — on the failing append and on every later one,
// since the log stays failed until reopened — the status a closed queue
// already uses, not 500.
func TestPoisonedLogObserveIs503(t *testing.T) {
	l, _, err := remwal.Open(remwal.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	q := remwal.NewQueue(remwal.QueueConfig{Log: l, Capacity: 4})
	defer q.Close()
	srv := httptest.NewServer(remserve.New(remserve.StoreBackend(remstore.New(0)), remserve.Options{
		Ingest: remserve.IngestOptions{Queue: q},
	}))
	defer srv.Close()
	post := func() int {
		t.Helper()
		resp, err := http.Post(srv.URL+"/observe", "application/json",
			strings.NewReader(`{"key":"aa:00","observations":[[1,2,0.5,-48]]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(); code != http.StatusOK {
		t.Fatalf("healthy log: status %d, want 200", code)
	}
	remwal.TearNextWrite(l)
	for i := 0; i < 3; i++ {
		if code := post(); code != http.StatusServiceUnavailable {
			t.Errorf("post %d after the torn append: status %d, want 503", i, code)
		}
	}
}
