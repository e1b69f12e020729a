// Live update: the REM as a serving system rather than a batch artefact.
// The two-UAV mission's samples arrive in windows; each window
// incrementally refits the per-MAC estimator, re-rasterises only the MACs
// the window touched (copy-on-write tiles keep the rest), and publishes
// an immutable snapshot into a concurrent store. A "client" goroutine
// queries the store the whole time — before the first publish it gets
// remstore.ErrEmpty, afterwards always a complete, versioned map, and it
// never waits for a rebuild. Finally the serving snapshot is persisted
// with the binary codec and reloaded: the restart path.
package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/rem"
	"repro/internal/remshard"
	"repro/internal/remstore"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "live_update:", err)
		os.Exit(1)
	}
}

func run() error {
	probe := geom.PaperScanVolume().Center()

	// 1. The client: once the stream hands out its store (before the
	// first snapshot exists), hammer it until told to stop, counting how
	// many distinct snapshot versions it observed serving traffic.
	var store *remstore.Store
	stop := make(chan struct{})
	clientDone := make(chan struct{})
	var served atomic.Uint64
	versions := sync.Map{}
	client := func() {
		defer close(clientDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, _, ver, err := store.Strongest(probe)
			switch {
			case errors.Is(err, remstore.ErrEmpty):
				// Nothing published yet; a real client would back off.
			case err != nil:
				fmt.Fprintln(os.Stderr, "client:", err)
				return
			default:
				served.Add(1)
				versions.Store(ver, true)
			}
		}
	}

	// 2. Stream the mission: samples in ~5 windows, the per-MAC kNN
	// default (tight dirty sets → delta-proportional rebuilds), three
	// snapshots of history.
	cfg := core.DefaultStreamConfig(1)
	cfg.MaxHistory = 3
	cfg.WindowRows = 520
	cfg.OnStore = func(st *remstore.Store, _ *remshard.ShardedStore) {
		store = st
		go client()
	}
	cfg.OnWindow = func(rep core.WindowReport) {
		snap := store.SnapshotAt(rep.Version)
		built, shared := snap.BuildStats()
		key, rss := snap.Map().Strongest(probe)
		fmt.Printf("window %d: +%4d rows → snapshot v%d  (%2d/%2d keys rebuilt, %3d tiles shared)  centre best: %s %.1f dBm\n",
			rep.Window, rep.NewRows, rep.Version, built, len(snap.Map().Keys()), shared, key, rss)
	}
	res, err := core.RunStream(cfg)
	close(stop)
	if store != nil {
		<-clientDone
	}
	if err != nil {
		return err
	}

	distinct := 0
	versions.Range(func(_, _ any) bool { distinct++; return true })
	stats := store.Stats()
	fmt.Printf("\nstore: %d snapshots published, %d retained; client served %d queries across %d generations\n",
		stats.Publishes, stats.HistoryLen, served.Load(), distinct)

	// 3. Restart path: persist the serving snapshot with the binary codec
	// and reload it bit-for-bit.
	final := res.Store.Current().Map()
	var buf bytes.Buffer
	encoded, err := final.WriteTo(&buf)
	if err != nil {
		return err
	}
	reloaded, err := rem.ReadFrom(&buf)
	if err != nil {
		return err
	}
	if !reloaded.Equal(final) {
		return fmt.Errorf("codec round-trip changed the map")
	}
	fmt.Printf("codec: snapshot v%d (map generation %d) persisted and reloaded bit-for-bit (%d tiles, %d bytes)\n",
		res.Store.Current().Version(), final.Version(), final.NumTiles(), encoded)

	// 4. The reloaded map serves a fresh store immediately — no refit, no
	// re-rasterisation.
	warm := remstore.New(0)
	if _, err := warm.Publish(reloaded, 0); err != nil {
		return err
	}
	key, rss, ver, err := warm.Strongest(probe)
	if err != nil {
		return err
	}
	fmt.Printf("after restart: strongest at centre = %s (%.1f dBm) served by snapshot v%d\n", key, rss, ver)

	// 5. A targeted refresh: five new readings of ONE network arrive
	// (say a hand-held re-survey near its AP). In the mission windows
	// above nearly every MAC appears in every window — a survey sees the
	// whole neighbourhood — so whole-map rebuilds were honest. A targeted
	// delta is where incrementality pays: one key dirty, every other tile
	// shared, rebuild cost 1/45th of a full rasterisation.
	pre := res.Pre
	dim := pre.FeatureDim(core.DefaultStreamSpec().Features)
	var dx [][]float64
	var dy []float64
	for i := 0; i < 5; i++ {
		row := make([]float64, dim)
		row[0], row[1], row[2] = 1.0+0.2*float64(i), 1.5, 1.2
		row[3+0] = 1 // MAC index 0
		dx = append(dx, row)
		dy = append(dy, -58-float64(i))
	}
	dirty, err := res.Estimator.Observe(dx, dy)
	if err != nil {
		return err
	}
	if err := res.Estimator.Refit(); err != nil {
		return err
	}
	predict := core.BatchPredictorFor(res.Estimator, dim, 1)
	next, err := final.RebuildKeys(dirty, predict, rem.BuildOptions{})
	if err != nil {
		return err
	}
	snap, err := store.Publish(next, len(dirty))
	if err != nil {
		return err
	}
	built, shared := snap.BuildStats()
	fmt.Printf("targeted refresh of %s: snapshot v%d rebuilt %d/%d keys, shared %d/%d tiles\n",
		pre.MACs[0], snap.Version(), built, len(next.Keys()), shared, next.NumTiles())
	return nil
}
