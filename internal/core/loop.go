package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/ml"
	"repro/internal/rem"
	"repro/internal/remobs"
	"repro/internal/remshard"
	"repro/internal/remstore"
)

// This file is the one generation loop behind both live pipelines.
// RunStream and RunIngest are batch sources — dataset windows, or WAL
// replay followed by queue pops — and every batch they produce runs the
// same step: Observe → Refit → ShardedStore.Rebuild (rasterise the dirty
// keys and publish the affected shards) → report. The bootstrap Fit is
// generation 0, so the first batch takes the same path with Fit in
// place of Observe+Refit and every key dirty.
//
// The sink is always a remshard.ShardedStore with N ≥ 1 shards.
// Determinism contract rule 8 makes a 1-shard store answer exactly like
// a monolithic one, so "monolithic mode" survives only at the edges: a
// loop without sharding options hands its callers (and its Observer)
// the lone shard's remstore.Store, and every serving front, version
// number and metric name is what a plain store would show.
//
// The key vocabulary is fixed upfront by preprocessing the bootstrap
// dataset (the simulated AP population is known to the mission), so
// every batch encodes against the same one-hot layout; a live
// deployment would periodically re-run the full pipeline to admit new
// MACs — see the ROADMAP's elastic-vocabulary item.

// generator is the shared state of one generation loop: the
// preprocessed vocabulary, the served estimator and the sink.
type generator struct {
	pre     *dataset.Preprocessed
	spec    EstimatorSpec
	inc     ml.IncrementalEstimator
	predict rem.BatchPredictFunc
	opts    rem.BuildOptions
	sink    *remshard.ShardedStore
	// mono reports a loop without sharding options: its edge is the
	// lone shard's store.
	mono   bool
	fitted bool
	o      *genObs
}

// newGenerator validates the shared configuration, preprocesses the
// bootstrap dataset, builds the served estimator (wrapped in
// ml.NewRefitAdapter unless natively incremental) and creates the sink
// — sc supplies the sharding options and history bound, the geometry
// comes from cfg — with the Observer wired to its edge.
func newGenerator(cfg Config, spec *EstimatorSpec, data *dataset.Dataset, sc remshard.Config, obs *remobs.Observer) (*generator, error) {
	if data == nil || data.Len() == 0 {
		return nil, errors.New("core: empty dataset")
	}
	if cfg.MinSamplesPerMAC < 1 {
		return nil, errors.New("core: MinSamplesPerMAC must be ≥1")
	}
	if cfg.REMResolution[0] < 1 || cfg.REMResolution[1] < 1 || cfg.REMResolution[2] < 1 {
		return nil, fmt.Errorf("core: the generation loop needs a positive REM resolution, got %v", cfg.REMResolution)
	}
	g := &generator{
		spec: DefaultStreamSpec(),
		opts: rem.BuildOptions{Workers: cfg.Workers},
		mono: sc.Shards <= 0,
		o:    newGenObs(obs),
	}
	if spec != nil {
		g.spec = *spec
	}
	var err error
	if g.pre, err = dataset.Preprocess(data, cfg.MinSamplesPerMAC); err != nil {
		return nil, err
	}
	est, err := g.spec.Build()
	if err != nil {
		return nil, fmt.Errorf("core: building %s: %w", g.spec.Name, err)
	}
	g.inc = ml.NewRefitAdapter(est)
	g.predict = BatchPredictorFor(g.inc, g.pre.FeatureDim(g.spec.Features), g.spec.Features.OneHotMACScale)
	sc.Volume, sc.Resolution = geom.PaperScanVolume(), cfg.REMResolution
	if g.sink, err = remshard.New(g.pre.MACs, sc); err != nil {
		return nil, err
	}
	if g.mono {
		g.sink.StoreOf(0).SetObserver(obs)
	} else {
		g.sink.SetObserver(obs)
	}
	return g, nil
}

// edge returns the sink as callers see it — exactly one of the two is
// non-nil: the lone shard's store for a loop without sharding options,
// the sharded store otherwise.
func (g *generator) edge() (*remstore.Store, *remshard.ShardedStore) {
	if g.mono {
		return g.sink.StoreOf(0), nil
	}
	return nil, g.sink
}

// step runs one generation over a batch of design-matrix rows: Fit on
// the first call (generation 0, every key dirty), Observe → Refit
// after, then one Rebuild round that rasterises the dirty keys and
// publishes the shards owning them. The round's Seq is the generation's
// version — 1 for the bootstrap, one more per batch. kind and detail
// label the generation's event ("window"/"batch" and the source's
// numbering). Errors name the failing stage; the caller adds which
// batch it was.
func (g *generator) step(x [][]float64, y []float64, kind, detail string) (remshard.Round, error) {
	start := time.Now()
	dirty := []int{ml.DirtyAll}
	var observeD time.Duration
	if g.fitted {
		var err error
		if dirty, err = g.inc.Observe(x, y); err != nil {
			return remshard.Round{}, fmt.Errorf("observing: %w", err)
		}
		observeD = time.Since(start)
		if err := g.inc.Refit(); err != nil {
			return remshard.Round{}, fmt.Errorf("refitting: %w", err)
		}
	} else if err := g.inc.Fit(x, y); err != nil {
		return remshard.Round{}, fmt.Errorf("fitting %s: %w", g.spec.Name, err)
	}
	g.fitted = true
	refitD := time.Since(start) - observeD
	t := time.Now()
	round, err := g.sink.Rebuild(dirty, g.predict, g.opts)
	if err != nil {
		return remshard.Round{}, fmt.Errorf("rasterising: %w", err)
	}
	g.o.markStages(observeD, refitD, time.Since(t))
	g.o.markGeneration(kind, detail, len(x), round, time.Since(start))
	return round, nil
}
