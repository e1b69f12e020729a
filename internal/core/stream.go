package core

import (
	"context"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/mission"
	"repro/internal/ml"
	"repro/internal/ml/knn"
	"repro/internal/remobs"
	"repro/internal/remshard"
	"repro/internal/remstore"
)

// This file is the streaming batch source: instead of one
// fly-fit-rasterise pass, RunStream cuts the mission's samples into
// windows and feeds each through the generation loop (loop.go), which
// publishes one REM generation per window — the incremental estimators
// (ml.IncrementalEstimator) report which keys a window can affect, and
// only those keys re-rasterise, sharing every other tile with the
// previous snapshot. Queries against the store never block on a
// rebuild.
//
// With StreamConfig.Shards the caller sees the sharded store: each
// window's dirty-key set is grouped by shard and only the affected
// shards rebuild and publish, concurrently — an update to one AP never
// touches the serving snapshots of the rest, and every query still
// answers byte-identically to the 1-shard stream (determinism contract
// rule 8). The estimator's Observe/Refit remain
// single estimator-level calls either way; it is the
// rasterise-and-publish half that fans out.

// StreamConfig tunes a streaming run. The embedded Config supplies the
// seed, mission options, MAC threshold, REM resolution and worker bound;
// TrainFraction and Estimators are unused here (streaming serves a single
// estimator on all arrived data rather than comparing a suite).
type StreamConfig struct {
	Config
	// Spec is the served estimator; nil means DefaultStreamSpec. Specs
	// whose estimator implements ml.IncrementalEstimator get
	// delta-proportional refits and rebuilds; any other estimator is
	// wrapped in ml.NewRefitAdapter (correct, but refitted from scratch
	// each window).
	Spec *EstimatorSpec
	// WindowRows is the number of preprocessed rows per published
	// window; ≤ 0 splits the dataset into 4 equal windows.
	WindowRows int
	// MaxHistory bounds the store's retained snapshot history
	// (≤ 0 means remstore.DefaultMaxHistory).
	MaxHistory int
	// OnWindow, when set, observes every published window in order —
	// the live-serving hook (progress logs, query probes). A hook that
	// needs the published snapshot reads it by rep.Version from the
	// store OnStore handed out.
	OnWindow func(WindowReport)

	// Context, when set, cancels the stream between windows: the loop
	// checks it before fitting each window and returns the result so
	// far together with the context's error — the published snapshots
	// stay serveable, so a signal-driven shutdown (remgen -serve) can
	// keep answering queries while it drains. Nil means never cancel.
	Context context.Context
	// OnStore, when set, fires exactly once, after the sink store
	// exists and before the first window publishes — the
	// serve-while-streaming hook: an HTTP front (remserve) started here
	// serves every generation from the very first publish. Exactly one
	// of the two arguments is non-nil: the sharded store when Shards is
	// set, the lone shard's plain store otherwise.
	OnStore func(*remstore.Store, *remshard.ShardedStore)

	// Shards > 0 streams into a sharded store instead of a single
	// plain one: the key vocabulary is partitioned across that many
	// independent stores, each window's dirty-key set is grouped by
	// shard, and only the affected shards rebuild and publish —
	// concurrently, within the Workers bound. Every query answers
	// byte-identically to the 1-shard stream (determinism contract
	// rule 8), so sharding is purely an availability/parallelism choice.
	Shards int

	// Observer, when set, instruments the stream: per-window stage
	// latencies (Observe/Refit/rebuild), generation events with
	// dirty-key counts, and — wired through to the store OnStore hands
	// out — publish and cover-index timings. Nil is the no-op and costs
	// nothing on the query path.
	Observer *remobs.Observer
}

// DefaultStreamConfig mirrors DefaultConfig for streaming runs.
func DefaultStreamConfig(seed uint64) StreamConfig {
	return StreamConfig{Config: DefaultConfig(seed)}
}

// DefaultStreamSpec is the streaming default: the per-MAC kNN, one
// plain tuned kNN per MAC behind the ml.PerKey router. Its Observe
// reports tight dirty sets — a window's samples dirty only the MACs
// they belong to (plus, while some MAC has no samples yet, the MACs the
// all-rows fallback serves) — which is what makes incremental rebuild
// cost proportional to the delta rather than the map.
func DefaultStreamSpec() EstimatorSpec {
	plain := dataset.FeatureOptions{OneHotMACScale: 1}
	return EstimatorSpec{
		Name:     "per-MAC kNN",
		Features: plain,
		Build:    perMAC(func() (ml.Estimator, error) { return knn.New(knn.PaperPlainConfig()) }),
	}
}

// WindowReport summarises one published window.
type WindowReport struct {
	// Window is the window index (0-based).
	Window int
	// NewRows is the number of rows this window added.
	NewRows int
	// TotalRows is the cumulative row count after the window.
	TotalRows int
	// DirtyKeys is how many keys the window dirtied (every key in
	// window 0).
	DirtyKeys int
	// SharedTiles is how many tiles the published snapshot(s) share
	// with their predecessors (0 in window 0). In sharded mode only the
	// affected shards publish, so untouched shards' tiles — still
	// serving, never copied — are not part of this count.
	SharedTiles int
	// Version is the generation: the rebuild-round sequence number,
	// window+1. Without sharding it is also the published snapshot's
	// store version.
	Version uint64
	// Shards is how many shards rebuilt and published this window.
	Shards int
}

// StreamResult is the full streaming output.
type StreamResult struct {
	// Store serves the published snapshots; Store.Current() is the final
	// generation. Nil in sharded mode — see Sharded.
	Store *remstore.Store
	// Sharded serves the published snapshots in sharded mode;
	// Sharded.MergedSnapshot() is the final monolithic view. Nil
	// without sharding options — see Store.
	Sharded *remshard.ShardedStore
	// Windows are the per-window reports, in publish order.
	Windows []WindowReport
	// Data is the raw mission dataset.
	Data *dataset.Dataset
	// Report is the mission flight report (nil for stored datasets).
	Report *mission.Report
	// Pre is the preprocessed dataset whose vocabulary the snapshots
	// share.
	Pre *dataset.Preprocessed
	// Estimator is the served incremental estimator, left fitted on every
	// streamed row — callers can keep the stream going (Observe → Refit →
	// Rebuild) after RunStream returns.
	Estimator ml.IncrementalEstimator
}

// RunStream flies the mission and streams its samples through the
// incremental pipeline; see RunStreamWithDataset.
func RunStream(cfg StreamConfig) (*StreamResult, error) {
	ctrl, err := mission.NewPaperController(cfg.Mission)
	if err != nil {
		return nil, err
	}
	data, report, err := ctrl.Run()
	if err != nil {
		return nil, err
	}
	return RunStreamWithDataset(cfg, data, report)
}

// RunStreamWithDataset streams an existing dataset through the
// generation loop: window 0 fits the estimator (generation 0), every
// later window runs Observe → Refit → Rebuild. After every publish, the
// served snapshot is byte-identical to a from-scratch build against a
// fresh estimator fitted on all rows so far (determinism contract rule
// 7; exact for the kNN family and the baseline, pinned at full-retrain
// numerics for the NN), for any worker count and any shard count.
func RunStreamWithDataset(cfg StreamConfig, data *dataset.Dataset, report *mission.Report) (*StreamResult, error) {
	g, err := newGenerator(cfg.Config, cfg.Spec, data, remshard.Config{
		Shards: cfg.Shards, MaxHistory: cfg.MaxHistory,
	}, cfg.Observer)
	if err != nil {
		return nil, err
	}
	res := &StreamResult{Data: data, Report: report, Pre: g.pre, Estimator: g.inc}
	res.Store, res.Sharded = g.edge()
	if cfg.OnStore != nil {
		cfg.OnStore(res.Store, res.Sharded)
	}
	allX, allY := g.pre.DesignMatrix(g.spec.Features)
	rows := len(allX)
	win := cfg.WindowRows
	if win <= 0 {
		win = (rows + 3) / 4
	}
	for start, w := 0, 0; start < rows; start, w = start+win, w+1 {
		if cfg.Context != nil {
			if err := cfg.Context.Err(); err != nil {
				// A clean stop, not a failure: everything published so
				// far keeps serving, so hand the partial result back
				// alongside the cancellation cause.
				return res, fmt.Errorf("core: stream cancelled after %d window(s): %w", w, err)
			}
		}
		end := min(start+win, rows)
		round, err := g.step(allX[start:end], allY[start:end], "window", fmt.Sprintf("window=%d", w))
		if err != nil {
			return nil, fmt.Errorf("core: window %d: %w", w, err)
		}
		rep := WindowReport{
			Window:      w,
			NewRows:     end - start,
			TotalRows:   end,
			DirtyKeys:   round.DirtyKeys,
			SharedTiles: round.SharedTiles,
			Version:     round.Seq,
			Shards:      round.AffectedShards,
		}
		res.Windows = append(res.Windows, rep)
		if cfg.OnWindow != nil {
			cfg.OnWindow(rep)
		}
	}
	return res, nil
}
