// Sharded stream: the REM vocabulary partitioned across independent
// stores. The two-UAV mission's samples arrive in windows, each window's
// dirty-key set is grouped by shard, and only the affected shards
// rebuild and publish — concurrently — while clients keep querying every
// shard lock-free. The walkthrough shows:
//
//  1. routed queries (At/AtBatchInto) and cross-shard best-server queries
//     (Strongest) hammering the store while the stream publishes;
//  2. determinism contract rule 8: the sharded store's merged view is
//     byte-identical to a monolithic stream over the same data;
//  3. the payoff of per-shard publishes: a targeted re-survey of one AP
//     rebuilds exactly one shard, and the other shards' serving
//     snapshots — versions included — do not move.
package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/mission"
	"repro/internal/rem"
	"repro/internal/remshard"
	"repro/internal/remstore"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sharded_stream:", err)
		os.Exit(1)
	}
}

func run() error {
	const shards = 4
	probe := geom.PaperScanVolume().Center()

	// 1. Fly the mission once; the same dataset later feeds the 1-shard
	// stream the rule 8 check compares against.
	cfg := core.DefaultStreamConfig(1)
	cfg.WindowRows = 520
	cfg.Shards = shards // keys route by an FNV hash of the MAC
	ctrl, err := mission.NewPaperController(cfg.Mission)
	if err != nil {
		return err
	}
	data, report, err := ctrl.Run()
	if err != nil {
		return err
	}

	// 2. The clients: routed point and batch queries plus cross-shard
	// best-server queries, all lock-free, all while shards publish. They
	// start from the OnStore hook, before the first round publishes.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var served, batchPoints atomic.Uint64
	clientErr := make(chan error, 2)
	var store *remshard.ShardedStore
	clients := func() {
		wg.Add(2)
		go func() { // routed queries on a fixed MAC
			defer wg.Done()
			key := store.Keys()[0]
			pts := []geom.Vec3{probe, geom.V(0.5, 0.5, 0.5), geom.V(3, 2, 2)}
			buf := make([]float64, len(pts))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := store.At(key, probe); err != nil && !errors.Is(err, remshard.ErrEmpty) {
					clientErr <- err
					return
				}
				ver, err := store.AtBatchInto(buf, key, pts) // zero-allocation serving path
				switch {
				case errors.Is(err, remshard.ErrEmpty): // nothing published yet
				case err != nil:
					clientErr <- err
					return
				default:
					_ = ver
					served.Add(1)
					batchPoints.Add(uint64(len(pts)))
				}
			}
		}()
		go func() { // best-server queries across every shard
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, _, err := store.Strongest(probe); err != nil && !errors.Is(err, remshard.ErrEmpty) {
					clientErr <- err
					return
				}
			}
		}()
	}

	// 3. Stream the mission into the sharded store: only the shards a
	// window dirties rebuild, concurrently, and publish independently.
	cfg.OnStore = func(_ *remstore.Store, ss *remshard.ShardedStore) {
		store = ss
		for si := 0; si < shards; si++ {
			fmt.Printf("shard %d owns %2d of %d MACs\n", si, ss.ShardLen(si), len(ss.Keys()))
		}
		clients()
	}
	cfg.OnWindow = func(rep core.WindowReport) {
		fmt.Printf("window %d: +%4d rows → round %d: %2d keys dirty, %d/%d shards rebuilt, %3d tiles shared\n",
			rep.Window, rep.NewRows, rep.Version, rep.DirtyKeys, rep.Shards, shards, rep.SharedTiles)
	}
	res, err := core.RunStreamWithDataset(cfg, data, report)
	close(stop)
	wg.Wait()
	if err != nil {
		return err
	}
	select {
	case err := <-clientErr:
		return err
	default:
	}
	stats := store.Stats()
	fmt.Printf("\nstream done: %d rounds, %d shard publishes, %d logical queries served (%d batch ops)\n",
		stats.Rounds, stats.ShardPublishes, stats.Queries, served.Load())

	// 4. Rule 8: reassemble the monolithic view from the shards (tile
	// headers only, no copying) and check it against a monolithic stream
	// over the same data.
	merged, err := store.MergedSnapshot()
	if err != nil {
		return err
	}
	monoCfg := cfg
	monoCfg.Shards, monoCfg.OnStore, monoCfg.OnWindow = 0, nil, nil
	mono, err := core.RunStreamWithDataset(monoCfg, data, report)
	if err != nil {
		return err
	}
	monoMap := mono.Store.Current().Map()
	if !merged.Equal(monoMap) {
		return fmt.Errorf("rule 8 violated: merged sharded view differs from the monolithic stream")
	}
	sk, sv, _, err := store.Strongest(probe)
	if err != nil {
		return err
	}
	mk, mv, _, err := mono.Store.Strongest(probe)
	if err != nil {
		return err
	}
	if sk != mk || math.Float64bits(sv) != math.Float64bits(mv) {
		return fmt.Errorf("rule 8 violated: Strongest differs (%s %v vs %s %v)", sk, sv, mk, mv)
	}
	fmt.Printf("rule 8 holds: merged view ≡ monolithic map; strongest at centre: %s (%.1f dBm) on both\n", sk, sv)

	// 5. A targeted re-survey of ONE AP: five new readings for one MAC
	// dirty one shard; that shard republishes and every other shard's
	// serving snapshot (and version) is untouched — no tile copies, no
	// publish, no query ever blocked.
	pre := res.Pre
	mac := pre.MACs[0]
	si, _ := store.ShardFor(mac)
	before := make([]uint64, shards)
	for s := 0; s < shards; s++ {
		before[s] = store.StoreOf(s).Current().Version()
	}
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
	round, err := store.Rebuild(dirty, core.BatchPredictorFor(res.Estimator, dim, 1), rem.BuildOptions{Workers: cfg.Workers})
	if err != nil {
		return err
	}
	fmt.Printf("targeted refresh of %s (shard %d): round %d rebuilt %d shard(s), %d key(s)\n",
		mac, si, round.Seq, round.AffectedShards, round.BuiltKeys)
	for s := 0; s < shards; s++ {
		after := store.StoreOf(s).Current().Version()
		marker := "unchanged"
		if after != before[s] {
			marker = fmt.Sprintf("v%d → v%d", before[s], after)
		}
		fmt.Printf("  shard %d: %s\n", s, marker)
	}
	return nil
}
