package remwal_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/rem"
	"repro/internal/remobs"
	"repro/internal/remserve"
	"repro/internal/remstore"
	"repro/internal/remwal"
)

// TestPoisonedLogObserveIs503: once a torn append poisons the WAL, POST
// /observe answers 503 — on the failing append and on every later one,
// since the log stays failed until reopened — the status a closed queue
// already uses, not 500. The failure is loud as well as sticky: GET
// /healthz turns from 200 "serving" to 503 "degraded" with the error in
// its "wal" field, the rem_wal_failed gauge reads 1, and the event ring
// holds exactly one wal-failed entry.
func TestPoisonedLogObserveIs503(t *testing.T) {
	obs := remobs.New(64)
	l, _, err := remwal.Open(remwal.Config{Dir: t.TempDir(), Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	q := remwal.NewQueue(remwal.QueueConfig{Log: l, Capacity: 4})
	defer q.Close()
	st := remstore.New(0)
	m, err := rem.BuildMapBatch(geom.PaperScanVolume(), 2, 2, 2, []string{"aa:00"},
		func(centers []geom.Vec3, _ int) ([]float64, error) { return make([]float64, len(centers)), nil },
		rem.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Publish(m, 1); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(remserve.New(remserve.StoreBackend(st), remserve.Options{
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
	health := func() (int, map[string]any) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]any
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("healthz body %q: %v", body, err)
		}
		return resp.StatusCode, doc
	}
	failedGauge := func() string {
		for _, line := range strings.Split(string(obs.Registry.AppendPrometheus(nil)), "\n") {
			if v, ok := strings.CutPrefix(line, "rem_wal_failed "); ok {
				return v
			}
		}
		return "missing"
	}
	walFailedEvents := func() int {
		n := 0
		for _, e := range obs.Events.Snapshot() {
			if e.Kind == "wal-failed" {
				n++
			}
		}
		return n
	}

	if code := post(); code != http.StatusOK {
		t.Fatalf("healthy log: status %d, want 200", code)
	}
	if code, doc := health(); code != http.StatusOK || doc["status"] != "serving" || doc["wal"] != nil {
		t.Fatalf("healthy log: healthz %d %v, want 200 serving without a wal field", code, doc)
	}
	if g := failedGauge(); g != "0" {
		t.Fatalf("healthy log: rem_wal_failed = %s, want 0", g)
	}
	remwal.TearNextWrite(l)
	for i := 0; i < 3; i++ {
		if code := post(); code != http.StatusServiceUnavailable {
			t.Errorf("post %d after the torn append: status %d, want 503", i, code)
		}
	}
	code, doc := health()
	if code != http.StatusServiceUnavailable || doc["status"] != "degraded" || doc["wal"] != "injected segment fault" {
		t.Fatalf("poisoned log: healthz %d %v, want 503 degraded naming the WAL error", code, doc)
	}
	if g := failedGauge(); g != "1" {
		t.Errorf("poisoned log: rem_wal_failed = %s, want 1", g)
	}
	if n := walFailedEvents(); n != 1 {
		t.Errorf("poisoned log: %d wal-failed events, want exactly 1", n)
	}
}
