package core

import (
	"time"

	"repro/internal/remobs"
	"repro/internal/remshard"
)

// genObs instruments the generation loop (loop.go) — the streaming
// windows of RunStream and the live batches of RunIngest run the same
// Observe → Refit → Rebuild step, so they share one instrument set. The
// rebuild stage is one ShardedStore.Rebuild round, rasterise and
// publish together; the sink additionally times its own publishes
// (remstore/remshard SetObserver), wired from the same Observer. A nil
// *genObs is the no-op: every method checks the receiver, so
// uninstrumented runs pay one pointer test per generation.
type genObs struct {
	obs     *remobs.Observer
	observe *remobs.Histogram
	refit   *remobs.Histogram
	rebuild *remobs.Histogram
	gen     *remobs.Histogram
	gens    *remobs.Counter
	rows    *remobs.Counter
	dirty   *remobs.Counter
}

// newGenObs registers the generation metrics, or returns nil for a nil
// observer.
func newGenObs(obs *remobs.Observer) *genObs {
	if obs == nil || obs.Registry == nil {
		return nil
	}
	reg := obs.Registry
	return &genObs{
		obs: obs,
		observe: reg.Histogram("rem_gen_observe_seconds",
			"estimator Observe latency per generation (dirty-set reporting)"),
		refit: reg.Histogram("rem_gen_refit_seconds",
			"estimator Refit latency per generation"),
		rebuild: reg.Histogram("rem_gen_rebuild_seconds",
			"rasterise + publish latency per generation (one sink rebuild round)"),
		gen: reg.Histogram("rem_gen_generation_seconds",
			"whole-generation latency: observe, refit, rebuild and publish"),
		gens: reg.Counter("rem_gen_generations_total",
			"generations published (stream windows plus ingest batches, bootstrap included)"),
		rows: reg.Counter("rem_gen_rows_total",
			"observation rows consumed across generations"),
		dirty: reg.Counter("rem_gen_dirty_keys_total",
			"keys dirtied across generations (every key on a bootstrap)"),
	}
}

// markStages records the learner-side stage timings (zero durations —
// a bootstrap window has no Observe/Refit — are skipped rather than
// polluting the low buckets).
func (o *genObs) markStages(observe, refit, rebuild time.Duration) {
	if o == nil {
		return
	}
	if observe > 0 {
		o.observe.Observe(observe)
	}
	if refit > 0 {
		o.refit.Observe(refit)
	}
	o.rebuild.Observe(rebuild)
}

// markGeneration records one published generation: the end-to-end
// histogram, the volume counters and a lifecycle event. kind is
// "window" (stream) or "batch" (ingest); detail carries the source's
// numbering (window index, or seq and replay flag).
func (o *genObs) markGeneration(kind, detail string, rows int, r remshard.Round, total time.Duration) {
	if o == nil {
		return
	}
	o.gen.Observe(total)
	o.gens.Inc()
	o.rows.Add(uint64(rows))
	o.dirty.Add(uint64(r.DirtyKeys))
	o.obs.Event(kind, "%s version=%d rows=%d dirty_keys=%d shared_tiles=%d shards=%d took=%s",
		detail, r.Seq, rows, r.DirtyKeys, r.SharedTiles, r.AffectedShards, total.Round(time.Microsecond))
}
