package remfollow

import (
	"net/http"
	"strings"

	"repro/internal/rem"
	"repro/internal/remserve"
	"repro/internal/remstore"
)

// followBackend adapts a Follower to the remserve.Backend surface, so
// the replica serves the exact same query endpoints as its leader —
// /at, /strongest, /snapshot, /delta all work against the local store,
// and a replica can itself be followed (chained replication). The
// snapshot tag is the leader's tag verbatim, held in one atomic
// generation pointer with the map it names, so the ETag a client sees
// always matches the bytes it gets even mid-swap. Its remserve.Reporter
// methods give the replica its own /healthz and /stats. The query
// methods are the local store's own.
type followBackend struct {
	*remstore.Store
	f *Follower
}

func (b followBackend) Snapshot() (*rem.Map, string, error) {
	g := b.f.gen.Load()
	if g == nil {
		return nil, "", remstore.ErrEmpty
	}
	return g.m, g.tag, nil
}

func (b followBackend) SnapshotAt(tag string) (*rem.Map, bool) {
	b.f.mu.Lock()
	defer b.f.mu.Unlock()
	for i := len(b.f.gens) - 1; i >= 0; i-- {
		if b.f.gens[i].tag == tag {
			return b.f.gens[i].m, true
		}
	}
	return nil, false
}

func (b followBackend) Stats() remserve.Stats {
	st := b.Store.Stats()
	out := remserve.Stats{
		Shards:    1,
		Queries:   st.Queries,
		Publishes: st.Publishes,
		Evictions: st.Evictions,
		PerShard:  []remstore.Stats{st},
	}
	if g := b.f.gen.Load(); g != nil {
		out.Serving = true
		out.Version = g.tag
		// The tag's arity is the leader's shard count: report it, so a
		// replica's /version is bit-identical to its leader's (the local
		// store is monolithic either way — PerShard stays length 1).
		out.Shards = strings.Count(g.tag, ".") + 1
	} else {
		out.Version = "0"
		out.PendingShards = 1
	}
	return out
}

// Health is the replica's /healthz (remserve.Reporter): "serving" while
// fresh, "stale" once the last successful sync is older than
// MaxStaleness (503 — orchestrators should route reads elsewhere,
// though this process will keep answering them), and "empty" before the
// first sync. Unlike the leader's probe it carries freshness: last-sync
// age, consecutive failures and the resync count, so "why is this
// replica unhealthy" is answerable from the probe body alone.
func (b followBackend) Health() (int, any) {
	s := b.f.syncStats()
	status, code := "serving", http.StatusOK
	switch {
	case s.Version == "":
		status, code = "empty", http.StatusServiceUnavailable
	case s.Stale:
		status, code = "stale", http.StatusServiceUnavailable
	}
	return code, struct {
		Status              string `json:"status"`
		Version             string `json:"version"`
		LastSyncAgeMS       int64  `json:"last_sync_age_ms"`
		ConsecutiveFailures int    `json:"consecutive_failures"`
		Resyncs             uint64 `json:"resyncs"`
	}{status, s.Version, s.LastSyncAgeMS, s.ConsecutiveFailures, s.Resyncs}
}

// StatsDoc is the replica's /stats (remserve.Reporter): the replication
// telemetry alongside the local store's serving counters.
func (b followBackend) StatsDoc() any {
	return struct {
		Sync  SyncStats      `json:"sync"`
		Store remserve.Stats `json:"store"`
	}{b.f.syncStats(), b.Stats()}
}

// syncStats snapshots the replication telemetry.
func (f *Follower) syncStats() SyncStats {
	f.stateMu.Lock()
	s := f.stats
	if !f.lastSync.IsZero() {
		age := f.cfg.Now().Sub(f.lastSync)
		s.LastSyncAgeMS = age.Milliseconds()
		s.Stale = age > f.cfg.MaxStaleness
	}
	f.stateMu.Unlock()
	return s
}

// SyncStats returns the current replication telemetry (the /stats
// "sync" section).
func (f *Follower) SyncStats() SyncStats { return f.syncStats() }
