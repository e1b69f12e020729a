package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/ml"
	"repro/internal/ml/baseline"
	"repro/internal/ml/knn"
	"repro/internal/ml/nn"
	"repro/internal/rem"
	"repro/internal/remshard"
	"repro/internal/remstore"
	"repro/internal/simrand"
)

// streamDataset builds a 4-MAC dataset whose arrival order makes the
// window structure interesting: the first 40 samples interleave all MACs,
// then two MAC-blocked tails — so later windows dirty only a subset of
// keys and tile sharing is observable.
func streamDataset() *dataset.Dataset {
	rng := simrand.New(2024)
	macs := []string{"aa:00", "bb:11", "cc:22", "dd:33"}
	d := &dataset.Dataset{}
	add := func(mi int) {
		x, y, z := rng.Range(0, 4), rng.Range(0, 3), rng.Range(0, 2.6)
		d.Add(dataset.Sample{
			UAV: "A", X: x, Y: y, Z: z, MAC: macs[mi], SSID: "net",
			RSSI: -40 - int(8*x) - int(3*y) - 2*mi - rng.Intn(4), Channel: 1 + mi,
		})
	}
	for i := 0; i < 40; i++ { // window 0: all MACs
		add(i % 4)
	}
	for _, mi := range []int{0, 1} { // window 1: MACs 0 and 1
		for i := 0; i < 20; i++ {
			add(mi)
		}
	}
	for _, mi := range []int{2, 3} { // window 2: MACs 2 and 3
		for i := 0; i < 20; i++ {
			add(mi)
		}
	}
	return d
}

func streamCfg(spec *EstimatorSpec, workers int) StreamConfig {
	cfg := DefaultStreamConfig(5)
	cfg.REMResolution = [3]int{6, 5, 4}
	cfg.Workers = workers
	cfg.WindowRows = 40
	cfg.Spec = spec
	return cfg
}

// fromScratchMap is the rule 7 comparator: a fresh estimator fitted on
// the first upto cumulative rows, rasterised from scratch.
func fromScratchMap(t *testing.T, spec EstimatorSpec, pre *dataset.Preprocessed, upto int, res [3]int) *rem.Map {
	t.Helper()
	est, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	allX, allY := pre.DesignMatrix(spec.Features)
	if err := est.Fit(allX[:upto], allY[:upto]); err != nil {
		t.Fatal(err)
	}
	predict := BatchPredictorFor(est, pre.FeatureDim(spec.Features), spec.Features.OneHotMACScale)
	m, err := rem.BuildMapBatch(geom.PaperScanVolume(), res[0], res[1], res[2], pre.MACs, predict, rem.BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// streamSpecs are the estimators the identity test sweeps: the tight
// dirty-set default, the running-mean baseline, the shared one-hot kNN
// (DirtyAll), a small full-retrain NN, and per-MAC IDW, whose
// non-incremental subs the router lifts through the RefitAdapter.
func streamSpecs() []EstimatorSpec {
	plain := dataset.FeatureOptions{OneHotMACScale: 1}
	scaled := dataset.FeatureOptions{OneHotMACScale: 3}
	nnCfg := nn.PaperConfig(5)
	nnCfg.Epochs = 10
	return []EstimatorSpec{
		DefaultStreamSpec(),
		{
			Name:     "baseline",
			Features: plain,
			Build:    perMAC(func() (ml.Estimator, error) { return &baseline.GlobalMean{}, nil }),
		},
		{
			Name:     "scaled kNN",
			Features: scaled,
			Build:    func() (ml.Estimator, error) { return knn.New(knn.PaperScaledConfig()) },
		},
		{
			Name:     "small NN",
			Features: plain,
			Build:    func() (ml.Estimator, error) { return nn.New(nnCfg) },
		},
		{
			Name:     "per-MAC IDW (adapter)",
			Features: plain,
			Build:    perMAC(func() (ml.Estimator, error) { return &rem.IDW{Power: 2, Smoothing: 0.05}, nil }),
		},
	}
}

// TestRunStreamSnapshotIdentity is rule 7 end to end: after every
// published window, the served snapshot is byte-identical to a
// from-scratch pipeline on the cumulative rows — across every estimator
// family.
func TestRunStreamSnapshotIdentity(t *testing.T) {
	data := streamDataset()
	for _, spec := range streamSpecs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			cfg := streamCfg(&spec, 2)
			cfg.MinSamplesPerMAC = 16
			type published struct {
				rep  WindowReport
				snap *remstore.Snapshot
			}
			var pubs []published
			var store *remstore.Store
			cfg.OnStore = func(st *remstore.Store, _ *remshard.ShardedStore) { store = st }
			cfg.OnWindow = func(rep WindowReport) {
				pubs = append(pubs, published{rep, store.SnapshotAt(rep.Version)})
			}
			res, err := RunStreamWithDataset(cfg, data, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Windows) != 3 {
				t.Fatalf("windows = %d, want 3", len(res.Windows))
			}
			for i, p := range pubs {
				want := fromScratchMap(t, spec, res.Pre, p.rep.TotalRows, cfg.REMResolution)
				if !p.snap.Map().Equal(want) {
					t.Fatalf("window %d: snapshot differs from from-scratch build", i)
				}
				if p.rep.Version != uint64(i+1) {
					t.Fatalf("window %d: version = %d", i, p.rep.Version)
				}
			}
			if cur := res.Store.Current(); cur == nil || cur.Version() != 3 {
				t.Fatal("store does not serve the final window")
			}
		})
	}
}

// TestRunStreamTileSharing: with the per-MAC default, a MAC-blocked
// window dirties only its keys and the snapshot shares the other keys'
// tiles with its parent.
func TestRunStreamTileSharing(t *testing.T) {
	cfg := streamCfg(nil, 1)
	res, err := RunStreamWithDataset(cfg, streamDataset(), nil)
	if err != nil {
		t.Fatal(err)
	}
	w := res.Windows
	if w[0].DirtyKeys != 4 || w[0].SharedTiles != 0 {
		t.Fatalf("window 0 = %+v, want 4 dirty keys and no sharing", w[0])
	}
	// Window 1 adds samples for MACs 0 and 1 only; every key already has
	// its own sub-regressor after window 0, so exactly 2 keys are dirty
	// and the other 2 keys' tiles are shared.
	tpk := res.Store.Current().Map().TilesPerKey()
	if w[1].DirtyKeys != 2 || w[1].SharedTiles != 2*tpk {
		t.Fatalf("window 1 = %+v, want 2 dirty keys and %d shared tiles", w[1], 2*tpk)
	}
	if w[2].DirtyKeys != 2 || w[2].SharedTiles != 2*tpk {
		t.Fatalf("window 2 = %+v, want 2 dirty keys and %d shared tiles", w[2], 2*tpk)
	}
	if stats := res.Store.Stats(); stats.Publishes != 3 {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestRunStreamWorkerInvariance: the streaming pipeline keeps the
// determinism contract across worker counts.
func TestRunStreamWorkerInvariance(t *testing.T) {
	data := streamDataset()
	run := func(workers int) *StreamResult {
		res, err := RunStreamWithDataset(streamCfg(nil, workers), data, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq, par := run(1), run(4)
	if !seq.Store.Current().Map().Equal(par.Store.Current().Map()) {
		t.Fatal("final snapshots differ between workers=1 and workers=4")
	}
	for i := range seq.Windows {
		if seq.Windows[i] != par.Windows[i] {
			t.Fatalf("window %d: %+v ≠ %+v", i, par.Windows[i], seq.Windows[i])
		}
	}
}

// TestRunStreamShardedEquivalence is determinism contract rule 8 at the
// pipeline layer: the same dataset streamed into a sharded store — for
// shard counts 1, 2, 4 and one past the vocabulary (so at least one
// shard stays empty) — serves every query byte-identically to the
// monolithic stream, window for window, and the merged sharded view is
// Map.Equal to the monolithic snapshot.
func TestRunStreamShardedEquivalence(t *testing.T) {
	data := streamDataset()
	mono, err := RunStreamWithDataset(streamCfg(nil, 2), data, nil)
	if err != nil {
		t.Fatal(err)
	}
	macs := mono.Pre.MACs
	rng := simrand.New(8)
	probes := make([]geom.Vec3, 16)
	for i := range probes {
		probes[i] = geom.V(rng.Range(0, 4), rng.Range(0, 3), rng.Range(0, 2.6))
	}
	for _, shards := range []int{1, 2, 4, len(macs) + 1} {
		t.Run(fmt.Sprintf("hash/shards=%d", shards), func(t *testing.T) {
			cfg := streamCfg(nil, 4)
			cfg.Shards = shards
			var sink *remshard.ShardedStore
			var rounds []uint64
			cfg.OnStore = func(_ *remstore.Store, ss *remshard.ShardedStore) { sink = ss }
			cfg.OnWindow = func(WindowReport) { rounds = append(rounds, sink.Rounds()) }
			sh, err := RunStreamWithDataset(cfg, data, nil)
			if err != nil {
				t.Fatal(err)
			}
			if sh.Store != nil || sh.Sharded == nil {
				t.Fatal("sharded stream did not publish into a sharded store")
			}
			if len(sh.Windows) != len(mono.Windows) {
				t.Fatalf("windows = %d, want %d", len(sh.Windows), len(mono.Windows))
			}
			for i, w := range sh.Windows {
				mw := mono.Windows[i]
				if w.DirtyKeys != mw.DirtyKeys || w.Version != mw.Version || w.NewRows != mw.NewRows {
					t.Fatalf("window %d: sharded %+v, monolithic %+v", i, w, mw)
				}
				if w.Shards < 1 || rounds[i] != w.Version {
					t.Fatalf("window %d: round %d for report %+v", i, rounds[i], w)
				}
			}
			merged, err := sh.Sharded.MergedSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !merged.Equal(mono.Store.Current().Map()) {
				t.Fatal("merged sharded view differs from the monolithic snapshot")
			}
			monoQ0 := mono.Store.Stats().Queries
			for _, pb := range probes {
				for _, mac := range macs {
					wv, _, err := mono.Store.At(mac, pb)
					if err != nil {
						t.Fatal(err)
					}
					gv, _, err := sh.Sharded.At(mac, pb)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(gv) != math.Float64bits(wv) {
						t.Fatalf("At(%s, %v): sharded %v, monolithic %v", mac, pb, gv, wv)
					}
				}
				wk, wv, _, err := mono.Store.Strongest(pb)
				if err != nil {
					t.Fatal(err)
				}
				gk, gv, _, err := sh.Sharded.Strongest(pb)
				if err != nil {
					t.Fatal(err)
				}
				if gk != wk || math.Float64bits(gv) != math.Float64bits(wv) {
					t.Fatalf("Strongest(%v): sharded (%s, %v), monolithic (%s, %v)", pb, gk, gv, wk, wv)
				}
			}
			// The same query stream counts identically (rule 8 on
			// Stats): compare the deltas this subtest produced.
			wantQ := mono.Store.Stats().Queries - monoQ0
			if got := sh.Sharded.Stats().Queries; got != wantQ {
				t.Fatalf("sharded logical queries = %d, monolithic = %d", got, wantQ)
			}
		})
	}
}

// TestRunStreamShardedWorkerInvariance: the sharded pipeline keeps the
// determinism contract across worker counts.
func TestRunStreamShardedWorkerInvariance(t *testing.T) {
	data := streamDataset()
	run := func(workers int) *StreamResult {
		cfg := streamCfg(nil, workers)
		cfg.Shards = 3
		res, err := RunStreamWithDataset(cfg, data, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq, par := run(1), run(4)
	a, err := seq.Sharded.MergedSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := par.Sharded.MergedSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("final sharded snapshots differ between workers=1 and workers=4")
	}
	for i := range seq.Windows {
		if seq.Windows[i] != par.Windows[i] {
			t.Fatalf("window %d: %+v ≠ %+v", i, par.Windows[i], seq.Windows[i])
		}
	}
}

// TestRunStreamValidation: configurations that cannot stream are
// rejected.
func TestRunStreamValidation(t *testing.T) {
	if _, err := RunStreamWithDataset(streamCfg(nil, 1), nil, nil); err == nil {
		t.Error("nil dataset accepted")
	}
	cfg := streamCfg(nil, 1)
	cfg.REMResolution = [3]int{}
	if _, err := RunStreamWithDataset(cfg, streamDataset(), nil); err == nil {
		t.Error("zero REM resolution accepted")
	}
	cfg = streamCfg(nil, 1)
	cfg.MinSamplesPerMAC = 0
	if _, err := RunStreamWithDataset(cfg, streamDataset(), nil); err == nil {
		t.Error("zero MAC threshold accepted")
	}
}

// TestRunStreamCancellation pins the graceful-stop contract: cancelling
// the config Context between windows stops the stream cleanly — the
// partial result is returned alongside the context error, and every
// snapshot published before the stop keeps serving.
func TestRunStreamCancellation(t *testing.T) {
	data := streamDataset()
	ctx, cancel := context.WithCancel(context.Background())
	cfg := streamCfg(nil, 1)
	cfg.Context = ctx
	published := 0
	cfg.OnWindow = func(rep WindowReport) {
		published++
		if rep.Window == 0 {
			cancel() // stop after the first publish; window 1 must not run
		}
	}
	res, err := RunStreamWithDataset(cfg, data, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled stream returned %v, want context.Canceled", err)
	}
	if published != 1 {
		t.Fatalf("published %d windows after cancelling in window 0, want 1", published)
	}
	if res == nil || len(res.Windows) != 1 {
		t.Fatalf("cancelled stream must hand back the partial result (got %+v)", res)
	}
	// The published generation keeps serving after the stop.
	if _, _, err := res.Store.At(res.Pre.MACs[0], geom.V(1, 1, 1)); err != nil {
		t.Fatalf("partial store stopped serving: %v", err)
	}
	// An already-cancelled context publishes nothing at all.
	cfg = streamCfg(nil, 1)
	cfg.Context = ctx
	res, err = RunStreamWithDataset(cfg, data, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled stream returned %v, want context.Canceled", err)
	}
	if res == nil || len(res.Windows) != 0 {
		t.Fatal("pre-cancelled stream must return an empty partial result")
	}
}
