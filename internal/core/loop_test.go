package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ml"
	"repro/internal/remshard"
	"repro/internal/remstore"
	"repro/internal/remwal"
)

// quietEstimator is the degenerate incremental estimator: it absorbs
// every batch but reports an empty dirty set, even for a non-empty
// batch — the case where a generation has nothing to re-rasterise.
type quietEstimator struct{ ml.IncrementalEstimator }

func (q quietEstimator) Observe(x [][]float64, y []float64) ([]int, error) {
	if _, err := q.IncrementalEstimator.Observe(x, y); err != nil {
		return nil, err
	}
	return []int{}, nil
}

func quietSpec() *EstimatorSpec {
	return &EstimatorSpec{
		Name:     "quiet per-MAC kNN",
		Features: dataset.FeatureOptions{OneHotMACScale: 1},
		Build: func() (ml.Estimator, error) {
			est, err := DefaultStreamSpec().Build()
			if err != nil {
				return nil, err
			}
			return quietEstimator{est.(ml.IncrementalEstimator)}, nil
		},
	}
}

// TestGenerationLoopContract pins the one generation loop on every
// batch source: OnStore fires exactly once, before the first publish;
// every generation is exactly one publish round (the bootstrap
// included), reported in order; and the reported version is the
// generation — window+1 for streams, seq+1 for ingest. Without sharding
// the reported version is also the serving store's version, so
// SnapshotAt(rep.Version) is the generation the report describes.
//
// The quiet rows settle the empty-dirty-set case: a non-empty batch the
// estimator says changes no key is still a generation — the version
// advances by one (rule 10's seq+1 holds) and the store republishes its
// map with every tile shared.
func TestGenerationLoopContract(t *testing.T) {
	rows := []struct {
		name   string
		shards int
		ingest bool
		spec   *EstimatorSpec
	}{
		{name: "stream/shards=0"},
		{name: "stream/shards=2", shards: 2},
		{name: "ingest", ingest: true},
		{name: "stream/shards=0/quiet", spec: quietSpec()},
		{name: "ingest/quiet", ingest: true, spec: quietSpec()},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var store *remstore.Store
			var sharded *remshard.ShardedStore
			hooked := 0
			hook := func(st *remstore.Store, ss *remshard.ShardedStore) {
				hooked++
				if (st == nil) == (ss == nil) {
					t.Fatalf("OnStore got (store %v, sharded %v), want exactly one", st != nil, ss != nil)
				}
				if (ss != nil) != (row.shards > 0) {
					t.Fatalf("OnStore handed out the sharded store: %v, want %v", ss != nil, row.shards > 0)
				}
				if st != nil && st.Stats().Publishes != 0 || ss != nil && ss.Rounds() != 0 {
					t.Fatal("OnStore fired after the first publish")
				}
				store, sharded = st, ss
			}
			// published counts publish rounds: a plain store publishes one
			// snapshot per round, a sharded one counts its rounds.
			published := func() uint64 {
				if sharded != nil {
					return sharded.Rounds()
				}
				return store.Stats().Publishes
			}
			check := func(gen int, version uint64, dirty, shared int) {
				if want := uint64(gen + 1); version != want || published() != want {
					t.Fatalf("generation %d: version %d after %d publish rounds, want %d and %d", gen, version, published(), want, want)
				}
				if store == nil {
					return
				}
				snap := store.Current()
				if snap.Version() != version || store.SnapshotAt(version) != snap {
					t.Fatalf("generation %d: report says v%d, store serves v%d", gen, version, snap.Version())
				}
				if row.spec != nil && gen > 0 {
					// Nothing dirty: the map republishes unchanged, every
					// tile shared with its predecessor.
					prev := store.SnapshotAt(version - 1)
					if dirty != 0 || shared != snap.Map().NumTiles() || !snap.Map().Equal(prev.Map()) {
						t.Fatalf("generation %d: quiet batch dirtied %d keys, shared %d/%d tiles", gen, dirty, shared, snap.Map().NumTiles())
					}
				}
			}

			gens := 0
			if row.ingest {
				batches := ingestBatches()
				q := remwal.NewQueue(remwal.QueueConfig{Capacity: len(batches)})
				for _, b := range batches[2:] {
					if _, err := q.Submit(b); err != nil {
						t.Fatal(err)
					}
				}
				q.Close()
				cfg := ingestCfg()
				cfg.Spec, cfg.Queue, cfg.Replay, cfg.Context = row.spec, q, batches[:2], context.Background()
				cfg.OnStore = func(st *remstore.Store) { hook(st, nil) }
				cfg.OnBatch = func(rep IngestReport) {
					// The bootstrap (generation 0) reports nothing of its
					// own; the first batch finds it one version back.
					if rep.Seq == 1 && store.SnapshotAt(1) == nil {
						t.Fatal("bootstrap generation was not published as v1")
					}
					check(int(rep.Seq), rep.Version, rep.DirtyKeys, rep.SharedTiles)
				}
				res, err := RunIngestWithDataset(cfg, streamDataset(), nil)
				if !errors.Is(err, remwal.ErrClosed) {
					t.Fatalf("ingest ended with %v, want queue closure", err)
				}
				gens = len(res.Batches) + 1
				if len(res.Batches) != len(batches) {
					t.Fatalf("published %d batches, want %d", len(res.Batches), len(batches))
				}
			} else {
				cfg := streamCfg(row.spec, 2)
				cfg.Shards = row.shards
				cfg.OnStore = hook
				cfg.OnWindow = func(rep WindowReport) {
					check(rep.Window, rep.Version, rep.DirtyKeys, rep.SharedTiles)
				}
				res, err := RunStreamWithDataset(cfg, streamDataset(), nil)
				if err != nil {
					t.Fatal(err)
				}
				gens = len(res.Windows)
				if res.Store != store || res.Sharded != sharded {
					t.Fatal("result sink differs from the one OnStore handed out")
				}
			}
			if hooked != 1 {
				t.Fatalf("OnStore fired %d times, want 1", hooked)
			}
			if published() != uint64(gens) {
				t.Fatalf("%d publish rounds for %d generations", published(), gens)
			}
		})
	}
}
