package remwal_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/remwal"
	"repro/internal/simrand"
)

// surveyDataset is a small two-MAC bootstrap survey inside the paper's
// scan volume, every MAC above the retention threshold.
func surveyDataset() *dataset.Dataset {
	rng := simrand.New(17)
	macs := []string{"aa:00", "bb:11"}
	d := &dataset.Dataset{}
	for i := 0; i < 2*dataset.MinSamplesPerMAC; i++ {
		mi := i % len(macs)
		x, y, z := rng.Range(0, 4), rng.Range(0, 3), rng.Range(0, 2.6)
		d.Add(dataset.Sample{
			UAV: "A", X: x, Y: y, Z: z, MAC: macs[mi], SSID: "net",
			RSSI: -40 - int(8*x) - int(3*y) - 2*mi - rng.Intn(4), Channel: 1 + mi,
		})
	}
	return d
}

// TestPoisonedLogStopsIngest: a torn append poisons the WAL, and the
// ingest loop stops instead of waiting forever on a queue that can no
// longer acknowledge anything. The batches acked before the fault still
// drain and publish, and RunIngest returns an error wrapping the log's
// sticky error — not a bare ErrClosed — so the operator sees the cause.
func TestPoisonedLogStopsIngest(t *testing.T) {
	l, _, err := remwal.Open(remwal.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	q := remwal.NewQueue(remwal.QueueConfig{Log: l, Capacity: 4})
	acked := []remwal.Batch{
		{Key: "aa:00", Points: []geom.Vec3{geom.V(1, 1, 0.5)}, Values: []float64{-47}},
		{Key: "bb:11", Points: []geom.Vec3{geom.V(3, 2, 1), geom.V(0.5, 0.5, 2)}, Values: []float64{-61, -58}},
	}
	for _, b := range acked {
		if _, err := q.Submit(b); err != nil {
			t.Fatal(err)
		}
	}
	remwal.TearNextWrite(l)
	if _, err := q.Submit(acked[0]); !errors.Is(err, remwal.ErrAppend) {
		t.Fatalf("torn append: %v, want ErrAppend", err)
	}
	if _, err := q.Submit(acked[0]); !errors.Is(err, remwal.ErrClosed) {
		t.Fatalf("submit after the torn append: %v, want ErrClosed", err)
	}

	// The deadline only bounds a loop that never stops; a correct loop
	// returns as soon as the queue has drained.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	cfg := core.IngestConfig{Config: core.DefaultConfig(5), Queue: q, Context: ctx}
	cfg.REMResolution = [3]int{4, 3, 2}
	cfg.Workers = 1
	res, err := core.RunIngestWithDataset(cfg, surveyDataset(), nil)
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("the ingest loop kept waiting on a queue the poisoned WAL had closed")
	}
	if err == nil || !errors.Is(err, l.Err()) {
		t.Fatalf("ingest ended with %v, want an error wrapping the WAL's %v", err, l.Err())
	}
	if !strings.Contains(err.Error(), "injected segment fault") {
		t.Errorf("error %q does not name the WAL fault", err)
	}
	if res == nil || len(res.Batches) != len(acked) {
		t.Fatalf("published %v, want the %d batches acked before the fault", res, len(acked))
	}
	if v := res.Store.Current().Version(); v != uint64(len(acked))+1 {
		t.Fatalf("serving v%d, want v%d (bootstrap + every acked batch)", v, len(acked)+1)
	}
}
