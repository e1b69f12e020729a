package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/mission"
	"repro/internal/ml"
	"repro/internal/rem"
	"repro/internal/remobs"
	"repro/internal/remshard"
	"repro/internal/remstore"
	"repro/internal/remwal"
)

// This file is the ingest batch source of the generation loop
// (loop.go): instead of windowing a pre-recorded dataset, RunIngest
// bootstraps the estimator on the mission's survey (generation 0) and
// then feeds live observation batches from a remwal.Queue through the
// same step — each batch is one generation (Observe → Refit →
// Rebuild), so the serving store advances one version per accepted
// batch and queries never block on a rebuild.
//
// Durability rides on the queue's write-ahead log: a batch is
// acknowledged only after its canonical REMO bytes are on disk, and
// Config.Replay re-feeds recovered batches through the identical code
// path before any live batch is popped. Determinism contract rule 10
// follows: a run killed at any point and restarted from its WAL
// publishes snapshots byte-identical to a run that never crashed,
// because the publish sequence is a pure function of the batch
// sequence, which the WAL preserves exactly.
//
// The key vocabulary stays fixed by the bootstrap dataset — a live
// batch for an unknown MAC is rejected at the serving edge (404) by
// the validator this loop installs, and never reaches the WAL.

// IngestConfig tunes an ingest run. The embedded Config supplies the
// seed, mission options, MAC threshold, REM resolution and worker
// bound; TrainFraction and Estimators are unused here.
type IngestConfig struct {
	Config
	// Spec is the served estimator; nil means DefaultStreamSpec.
	Spec *EstimatorSpec
	// MaxHistory bounds the store's retained snapshot history
	// (≤ 0 means remstore.DefaultMaxHistory).
	MaxHistory int
	// Queue is the batch source — required. The loop installs a
	// vocabulary/geometry validator on it (so rejected batches never
	// reach the WAL) and closes it when the loop exits, flipping the
	// serving edge to 503.
	Queue *remwal.Queue
	// Replay is the WAL's recovered batches, processed before any live
	// pop — pass remwal.Batches(recs) from the Open that produced Queue's
	// log so a restart resumes exactly where the crash interrupted.
	Replay []remwal.Batch
	// Context stops the loop — required (an ingest run has no natural
	// end). Cancellation between batches is a clean stop: everything
	// published keeps serving and the partial result is returned
	// alongside the context's error.
	Context context.Context
	// OnStore fires exactly once, after the sink store exists and before
	// the bootstrap snapshot publishes — the serve-while-ingesting hook.
	OnStore func(*remstore.Store)
	// OnBatch observes every published batch in order (replayed ones
	// included, flagged), after the bootstrap publish.
	OnBatch func(IngestReport)
	// Observer, when set, instruments the loop: per-batch stage
	// latencies, generation events with dirty-key counts, and the sink
	// store's publish metrics. The caller should hand the same Observer
	// to the Queue and its Log so one scrape covers the whole ingest
	// edge. Nil is the no-op.
	Observer *remobs.Observer
}

// IngestReport summarises one published batch.
type IngestReport struct {
	// Seq is the batch ordinal (1-based; the bootstrap publish is not a
	// batch). For WAL-backed queues this equals the record sequence.
	Seq uint64
	// Version is the generation and the published snapshot's store
	// version (bootstrap is 1, so Version = Seq+1).
	Version uint64
	// Rows is the number of observations in the batch.
	Rows int
	// DirtyKeys is how many keys the batch dirtied.
	DirtyKeys int
	// SharedTiles is how many tiles the published snapshot shares with
	// its predecessor.
	SharedTiles int
	// Replayed marks a batch recovered from the WAL rather than popped
	// live.
	Replayed bool
}

// IngestResult is the full ingest output.
type IngestResult struct {
	// Store serves the published snapshots; Store.Current() is the final
	// generation.
	Store *remstore.Store
	// Batches are the per-batch reports, in publish order.
	Batches []IngestReport
	// Data is the bootstrap mission dataset.
	Data *dataset.Dataset
	// Report is the mission flight report (nil for stored datasets).
	Report *mission.Report
	// Pre is the preprocessed bootstrap whose vocabulary the snapshots
	// share.
	Pre *dataset.Preprocessed
	// Estimator is the served incremental estimator, left fitted on
	// every row seen.
	Estimator ml.IncrementalEstimator
}

// RunIngest flies the mission for the bootstrap survey and then serves
// live batches; see RunIngestWithDataset.
func RunIngest(cfg IngestConfig) (*IngestResult, error) {
	ctrl, err := mission.NewPaperController(cfg.Mission)
	if err != nil {
		return nil, err
	}
	data, report, err := ctrl.Run()
	if err != nil {
		return nil, err
	}
	return RunIngestWithDataset(cfg, data, report)
}

// RunIngestWithDataset bootstraps the estimator on the full dataset,
// publishes the bootstrap snapshot (version 1), then consumes batches —
// Replay first, then live pops — publishing one snapshot per batch
// until the context cancels or the queue closes. The returned result is
// partial but valid in both cases; the error wraps the cause.
func RunIngestWithDataset(cfg IngestConfig, data *dataset.Dataset, report *mission.Report) (*IngestResult, error) {
	if cfg.Queue == nil {
		return nil, errors.New("core: ingest needs a Queue")
	}
	if cfg.Context == nil {
		return nil, errors.New("core: ingest needs a Context (the loop has no natural end)")
	}
	g, err := newGenerator(cfg.Config, cfg.Spec, data, remshard.Config{MaxHistory: cfg.MaxHistory}, cfg.Observer)
	if err != nil {
		return nil, err
	}
	res := &IngestResult{Data: data, Report: report, Pre: g.pre, Estimator: g.inc}
	res.Store, _ = g.edge()
	macIdx := make(map[string]int, len(g.pre.MACs))
	for i, m := range g.pre.MACs {
		macIdx[m] = i
	}
	// The vocabulary gate: a batch for an unknown MAC never reaches the
	// WAL, so replay only ever sees batches this loop can encode.
	cfg.Queue.SetValidator(func(b remwal.Batch) error {
		if _, ok := macIdx[b.Key]; !ok {
			return fmt.Errorf("%w: %q", rem.ErrUnknownKey, b.Key)
		}
		return nil
	})
	// Once the loop exits — however it exits — the serving edge sheds
	// writes with 503 instead of acknowledging batches nobody will
	// process.
	defer cfg.Queue.Close()
	if cfg.OnStore != nil {
		cfg.OnStore(res.Store)
	}
	allX, allY := g.pre.DesignMatrix(g.spec.Features)
	if _, err := g.step(allX, allY, "batch", "bootstrap"); err != nil {
		return nil, fmt.Errorf("core: bootstrap: %w", err)
	}

	featDim := g.pre.FeatureDim(g.spec.Features)
	process := func(b remwal.Batch, replayed bool) error {
		seq := uint64(len(res.Batches)) + 1
		ki, ok := macIdx[b.Key]
		if !ok {
			// Replay of a WAL written before the validator existed (or by
			// a different vocabulary) — a config error, not a data fault.
			return fmt.Errorf("core: batch %d: %w: %q", seq, rem.ErrUnknownKey, b.Key)
		}
		x := designRows(b.Points, ki, featDim, g.spec.Features.OneHotMACScale)
		// The estimator may keep the targets; the batch is the queue's.
		y := append([]float64(nil), b.Values...)
		round, err := g.step(x, y, "batch", fmt.Sprintf("seq=%d replayed=%v", seq, replayed))
		if err != nil {
			return fmt.Errorf("core: batch %d: %w", seq, err)
		}
		rep := IngestReport{
			Seq:         seq,
			Version:     round.Seq,
			Rows:        len(b.Points),
			DirtyKeys:   round.DirtyKeys,
			SharedTiles: round.SharedTiles,
			Replayed:    replayed,
		}
		res.Batches = append(res.Batches, rep)
		if cfg.OnBatch != nil {
			cfg.OnBatch(rep)
		}
		return nil
	}

	for i := 0; ; i++ {
		var b remwal.Batch
		replayed := i < len(cfg.Replay)
		if replayed {
			err = cfg.Context.Err()
			b = cfg.Replay[i]
		} else {
			b, err = cfg.Queue.Pop(cfg.Context)
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, remwal.ErrClosed) {
			return res, fmt.Errorf("core: ingest stopped after %d batch(es): %w", len(res.Batches), err)
		}
		if err == nil {
			err = process(b, replayed)
		}
		if err != nil {
			return res, err
		}
	}
}
