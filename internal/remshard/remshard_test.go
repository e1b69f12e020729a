package remshard

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/ml"
	"repro/internal/rem"
	"repro/internal/remstore"
	"repro/internal/simrand"
)

var testVol = geom.MustCuboid(geom.V(0, 0, 0), 4, 3, 2.6)

const (
	testNX = 6
	testNY = 5
	testNZ = 4
)

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("aa:bb:%02d", i)
	}
	return keys
}

// evolvingModel is the test stand-in for an incremental estimator: a
// deterministic field per (key, generation), where a key's generation
// advances when a round dirties it. The predictor answers by global key
// index, exactly the contract core.BatchPredictorFor produces, and is
// concurrency-safe during a rebuild (gen mutates only between rounds).
type evolvingModel struct {
	gen []int
}

func newEvolvingModel(nKeys int) *evolvingModel {
	return &evolvingModel{gen: make([]int, nKeys)}
}

func (m *evolvingModel) touch(dirty []int) {
	for _, gi := range dirty {
		if gi == ml.DirtyAll {
			for i := range m.gen {
				m.gen[i]++
			}
			return
		}
		m.gen[gi]++
	}
}

func (m *evolvingModel) predict(centers []geom.Vec3, gi int) ([]float64, error) {
	out := make([]float64, len(centers))
	g := float64(m.gen[gi])
	for i, p := range centers {
		out[i] = -55 - p.X*float64(1+gi%3) - 2*p.Y + p.Z - float64(gi) - 3*g
	}
	return out, nil
}

func testProbes(n int) []geom.Vec3 {
	rng := simrand.New(777)
	pts := make([]geom.Vec3, n)
	for i := range pts {
		pts[i] = geom.V(rng.Range(-0.2, 4.2), rng.Range(-0.2, 3.2), rng.Range(-0.2, 2.8))
	}
	return pts
}

// shardOfFunc is newStore's key-to-shard assignment.
type shardOfFunc = func(key string, shards int) int

// testLayouts returns the named key-to-shard layouts the equivalence
// tests sweep through the newStore seam: the hash New uses, an explicit
// per-key round-robin assignment (which leaves shards empty when
// shards > len(keys)), and a range layout that keeps contiguous key
// runs together.
func testLayouts(keys []string, shards int) map[string]shardOfFunc {
	assign := make(map[string]int, len(keys))
	for i, k := range keys {
		assign[k] = i % shards
	}
	return map[string]shardOfFunc{
		"hash":     hashByKey,
		"explicit": func(key string, _ int) int { return assign[key] },
		"range": func(key string, n int) int {
			for i, k := range keys {
				if k == key {
					return i * n / len(keys)
				}
			}
			return -1
		},
	}
}

// pairLayout puts keys "aa:bb:00","aa:bb:01" on shard 0, the next two
// on shard 1, and so on.
func pairLayout(key string, _ int) int {
	var i int
	fmt.Sscanf(key, "aa:bb:%02d", &i)
	return i / 2
}

// driveRound applies one dirty round to both a monolithic chain and a
// sharded store from the same evolving model.
type harness struct {
	t       *testing.T
	keys    []string
	model   *evolvingModel
	mono    *remstore.Store
	monoMap *rem.Map
	sharded *ShardedStore
}

func newHarness(t *testing.T, nKeys int, shardOf shardOfFunc, shards int) *harness {
	t.Helper()
	keys := testKeys(nKeys)
	sh, err := newStore(keys, Config{
		Shards:     shards,
		Volume:     testVol,
		Resolution: [3]int{testNX, testNY, testNZ},
	}, shardOf)
	if err != nil {
		t.Fatal(err)
	}
	return &harness{
		t:       t,
		keys:    keys,
		model:   newEvolvingModel(nKeys),
		mono:    remstore.New(0),
		sharded: sh,
	}
}

func (h *harness) round(dirty []int) Round {
	h.t.Helper()
	h.model.touch(dirty)
	// Monolithic: full build on the first round, RebuildKeys after.
	var next *rem.Map
	var err error
	if h.monoMap == nil {
		next, err = rem.BuildMapBatch(testVol, testNX, testNY, testNZ, h.keys, h.model.predict, rem.BuildOptions{Workers: 1})
	} else {
		next, err = h.monoMap.RebuildKeys(dirty, h.model.predict, rem.BuildOptions{Workers: 1})
	}
	if err != nil {
		h.t.Fatal(err)
	}
	if _, err := h.mono.Publish(next, len(dirty)); err != nil {
		h.t.Fatal(err)
	}
	h.monoMap = next
	// Sharded: the same dirty set, routed.
	round, err := h.sharded.Rebuild(dirty, h.model.predict, rem.BuildOptions{Workers: 2})
	if err != nil {
		h.t.Fatal(err)
	}
	return round
}

// checkEquivalence pins rule 8 at a quiescent point: the merged sharded
// view is Map.Equal to the monolithic map, and At/Strongest answers
// match bit for bit.
func (h *harness) checkEquivalence(probes []geom.Vec3) {
	h.t.Helper()
	merged, err := h.sharded.MergedSnapshot()
	if err != nil {
		h.t.Fatal(err)
	}
	if !merged.Equal(h.monoMap) {
		h.t.Fatal("merged sharded view differs from the monolithic map")
	}
	// Pointwise monolithic answers are the reference for every batch
	// path on both stores.
	n := len(probes)
	wb, gb := make([]float64, n), make([]float64, n)
	for _, key := range h.keys {
		if _, err := h.mono.AtBatchInto(wb, key, probes); err != nil {
			h.t.Fatal(err)
		}
		if _, err := h.sharded.AtBatchInto(gb, key, probes); err != nil {
			h.t.Fatal(err)
		}
		for i, p := range probes {
			wv, _, err := h.mono.At(key, p)
			if err != nil {
				h.t.Fatal(err)
			}
			gv, _, err := h.sharded.At(key, p)
			if err != nil {
				h.t.Fatal(err)
			}
			if math.Float64bits(gv) != math.Float64bits(wv) {
				h.t.Fatalf("At(%s, %v): sharded %v, monolithic %v", key, p, gv, wv)
			}
			if math.Float64bits(wb[i]) != math.Float64bits(wv) || math.Float64bits(gb[i]) != math.Float64bits(wv) {
				h.t.Fatalf("AtBatchInto(%s)[%d]: monolithic %v, sharded %v, pointwise %v", key, i, wb[i], gb[i], wv)
			}
		}
	}
	wks, gks := make([]string, n), make([]string, n)
	if _, err := h.mono.StrongestBatchInto(wks, wb, probes); err != nil {
		h.t.Fatal(err)
	}
	if err := h.sharded.StrongestBatchInto(gks, gb, probes); err != nil {
		h.t.Fatal(err)
	}
	for i, p := range probes {
		wk, wv, _, err := h.mono.Strongest(p)
		if err != nil {
			h.t.Fatal(err)
		}
		gk, gv, _, err := h.sharded.Strongest(p)
		if err != nil {
			h.t.Fatal(err)
		}
		if gk != wk || math.Float64bits(gv) != math.Float64bits(wv) {
			h.t.Fatalf("Strongest(%v): sharded (%s, %v), monolithic (%s, %v)", p, gk, gv, wk, wv)
		}
		if wks[i] != wk || gks[i] != wk || math.Float64bits(wb[i]) != math.Float64bits(wv) || math.Float64bits(gb[i]) != math.Float64bits(wv) {
			h.t.Fatalf("StrongestBatchInto[%d]: monolithic (%s, %v), sharded (%s, %v), pointwise (%s, %v)",
				i, wks[i], wb[i], gks[i], gb[i], wk, wv)
		}
	}
}

// TestShardedEquivalence is rule 8 at the remshard layer: over a round
// sequence with localized, overlapping and DirtyAll dirty sets, every
// query answers byte-identically to the monolithic chain — for each
// layout and shard count, including shard counts above the key
// count and deliberately empty shards.
func TestShardedEquivalence(t *testing.T) {
	const nKeys = 7
	probes := testProbes(23)
	rounds := [][]int{
		{0, 1, 2, 3, 4, 5, 6}, // first build
		{1},
		{2, 5},
		{ml.DirtyAll},
		{6, 0, 6, 0}, // duplicates collapse
	}
	for _, shards := range []int{1, 2, 4, 9} {
		for name, p := range testLayouts(testKeys(nKeys), shards) {
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				h := newHarness(t, nKeys, p, shards)
				for _, dirty := range rounds {
					round := h.round(dirty)
					h.checkEquivalence(probes)
					if round.Seq == 0 || round.AffectedShards == 0 {
						t.Fatalf("round = %+v", round)
					}
				}
				if got := h.sharded.Rounds(); got != uint64(len(rounds)) {
					t.Fatalf("rounds = %d, want %d", got, len(rounds))
				}
			})
		}
	}
}

// TestShardedQueryCounts: the logical query count matches what a
// monolithic store reports for the same query stream, and the aggregate
// stats are self-consistent.
func TestShardedQueryCounts(t *testing.T) {
	h := newHarness(t, 5, hashByKey, 3)
	h.round([]int{0, 1, 2, 3, 4})
	probes := testProbes(9)
	buf := make([]float64, len(probes))
	for _, key := range h.keys {
		if _, _, err := h.mono.At(key, probes[0]); err != nil {
			t.Fatal(err)
		}
		if _, _, err := h.sharded.At(key, probes[0]); err != nil {
			t.Fatal(err)
		}
		if _, err := h.mono.AtBatchInto(buf, key, probes); err != nil {
			t.Fatal(err)
		}
		if _, err := h.sharded.AtBatchInto(buf, key, probes); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range probes {
		if _, _, _, err := h.mono.Strongest(p); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := h.sharded.Strongest(p); err != nil {
			t.Fatal(err)
		}
	}
	keys := make([]string, len(probes))
	if _, err := h.mono.StrongestBatchInto(keys, buf, probes); err != nil {
		t.Fatal(err)
	}
	if err := h.sharded.StrongestBatchInto(keys, buf, probes); err != nil {
		t.Fatal(err)
	}
	monoQ := h.mono.Stats().Queries
	stats := h.sharded.Stats()
	if stats.Queries != monoQ {
		t.Fatalf("sharded logical queries = %d, monolithic = %d", stats.Queries, monoQ)
	}
	var pubs, shq uint64
	for _, ps := range stats.PerShard {
		pubs += ps.Publishes
		shq += ps.Queries
	}
	if stats.ShardPublishes != pubs || stats.ShardQueries != shq {
		t.Fatalf("aggregate totals %d/%d do not match per-shard sums %d/%d",
			stats.ShardPublishes, stats.ShardQueries, pubs, shq)
	}
}

// TestShardedVersionsIndependent: a round leaves untouched shards'
// serving snapshots (and versions) alone — the publish-independence the
// sharding exists for.
func TestShardedVersionsIndependent(t *testing.T) {
	keys := testKeys(4)
	// Keys 0,1 → shard 0; keys 2,3 → shard 1.
	h := newHarness(t, 4, pairLayout, 2)
	h.round([]int{0, 1, 2, 3})
	r := h.round([]int{1}) // dirties shard 0 only
	if r.AffectedShards != 1 || r.Versions[0] != 2 || r.Versions[1] != 0 {
		t.Fatalf("round = %+v", r)
	}
	if v := h.sharded.StoreOf(1).Current().Version(); v != 1 {
		t.Fatalf("untouched shard advanced to version %d", v)
	}
	if v := h.sharded.StoreOf(0).Current().Version(); v != 2 {
		t.Fatalf("touched shard at version %d, want 2", v)
	}
	// And the untouched shard's map is literally the same object.
	if _, _, err := h.sharded.At(keys[3], geom.V(1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	// BuiltKeys counts only what was rasterised.
	if r.BuiltKeys != 1 || r.DirtyKeys != 1 {
		t.Fatalf("round built %d / dirty %d, want 1 / 1", r.BuiltKeys, r.DirtyKeys)
	}
}

// TestShardedUnbuiltShardFullBuilds: dirtying one key of a shard that
// has never published full-builds that shard.
func TestShardedUnbuiltShardFullBuilds(t *testing.T) {
	h := newHarness(t, 4, pairLayout, 2)
	h.model.touch([]int{0})
	r, err := h.sharded.Rebuild([]int{0}, h.model.predict, rem.BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Shard 0 owns keys 0 and 1; both must be rasterised.
	if r.AffectedShards != 1 || r.BuiltKeys != 2 || r.DirtyKeys != 1 {
		t.Fatalf("round = %+v", r)
	}
	// Shard 1 has not published: the merged view must refuse.
	if _, err := h.sharded.MergedSnapshot(); err == nil {
		t.Fatal("partially-published store merged")
	}
	// But routed queries to the built shard serve.
	if _, _, err := h.sharded.At(h.keys[1], geom.V(1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.sharded.At(h.keys[2], geom.V(1, 1, 1)); !errors.Is(err, remstore.ErrEmpty) {
		t.Fatalf("unbuilt shard query = %v, want ErrEmpty", err)
	}
}

// TestShardedEmpty: queries against a store that has never rebuilt.
func TestShardedEmpty(t *testing.T) {
	h := newHarness(t, 3, hashByKey, 2)
	if _, _, err := h.sharded.At(h.keys[0], geom.V(1, 1, 1)); !errors.Is(err, remstore.ErrEmpty) {
		t.Fatalf("At = %v, want ErrEmpty", err)
	}
	if _, _, _, err := h.sharded.Strongest(geom.V(1, 1, 1)); !errors.Is(err, remstore.ErrEmpty) {
		t.Fatalf("Strongest = %v, want ErrEmpty", err)
	}
	if err := h.sharded.StrongestBatchInto(make([]string, 3), make([]float64, 3), testProbes(3)); !errors.Is(err, remstore.ErrEmpty) {
		t.Fatalf("StrongestBatchInto = %v, want ErrEmpty", err)
	}
	if _, err := h.sharded.MergedSnapshot(); !errors.Is(err, remstore.ErrEmpty) {
		t.Fatalf("MergedSnapshot = %v, want ErrEmpty", err)
	}
	if stats := h.sharded.Stats(); stats.Queries != 0 {
		t.Fatalf("empty-store queries counted: %+v", stats)
	}
}

// TestShardedValidation: bad configurations and bad queries fail loudly.
func TestShardedValidation(t *testing.T) {
	keys := testKeys(3)
	good := Config{Shards: 2, Volume: testVol, Resolution: [3]int{4, 4, 2}}
	if _, err := New(nil, good); err == nil {
		t.Fatal("empty vocabulary accepted")
	}
	if _, err := New([]string{"a", "a"}, good); err == nil {
		t.Fatal("duplicate key accepted")
	}
	bad := good
	bad.Resolution = [3]int{0, 4, 2}
	if _, err := New(keys, bad); err == nil {
		t.Fatal("invalid resolution accepted")
	}
	st, err := New(keys, good)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Rebuild([]int{0}, nil, rem.BuildOptions{}); err == nil {
		t.Fatal("nil predictor accepted")
	}
	model := newEvolvingModel(3)
	if _, err := st.Rebuild([]int{5}, model.predict, rem.BuildOptions{}); err == nil {
		t.Fatal("out-of-range dirty key accepted")
	}
	if _, err := st.Rebuild([]int{0, 1, 2}, model.predict, rem.BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.At("nope", geom.V(1, 1, 1)); err == nil {
		t.Fatal("unknown key accepted")
	}
	if _, ok := st.ShardFor("nope"); ok {
		t.Fatal("unknown key has a shard")
	}
	// An empty dirty set is still a generation: every keyed shard
	// republishes its map unchanged, every tile shared.
	before := st.Stats()
	r, err := st.Rebuild(nil, model.predict, rem.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	keyed := 0
	for si := 0; si < st.NumShards(); si++ {
		if st.ShardLen(si) == 0 {
			if r.Versions[si] != 0 {
				t.Fatalf("keyless shard %d published in round %+v", si, r)
			}
			continue
		}
		keyed++
		cur := st.StoreOf(si).Current()
		if r.Versions[si] != before.PerShard[si].CurrentVersion+1 || cur.Version() != r.Versions[si] {
			t.Fatalf("shard %d: round %+v, serving v%d, was v%d", si, r, cur.Version(), before.PerShard[si].CurrentVersion)
		}
		if built, shared := cur.BuildStats(); built != 0 || shared != cur.Map().NumTiles() {
			t.Fatalf("shard %d: empty round built %d keys, shared %d/%d tiles", si, built, shared, cur.Map().NumTiles())
		}
	}
	if r.AffectedShards != keyed || r.DirtyKeys != 0 || r.BuiltKeys != 0 {
		t.Fatalf("empty round = %+v, want %d shards republished", r, keyed)
	}
}

// TestMergedSnapshotAt: a version vector resolves to the exact merged
// view that was serving when the vector was captured — as long as every
// constituent shard snapshot is still retained.
func TestMergedSnapshotAt(t *testing.T) {
	h := newHarness(t, 9, hashByKey, 3)
	type gen struct {
		versions []uint64
		m        *rem.Map
	}
	var gens []gen
	for r := 0; r < 3; r++ {
		h.round([]int{ml.DirtyAll})
		m, versions, err := h.sharded.MergedSnapshotVersions()
		if err != nil {
			t.Fatal(err)
		}
		gens = append(gens, gen{versions: versions, m: m})
	}
	for i, g := range gens {
		got, ok := h.sharded.MergedSnapshotAt(g.versions)
		if !ok {
			t.Fatalf("generation %d no longer resolvable", i)
		}
		if !got.Equal(g.m) {
			t.Fatalf("generation %d reconstructed differently", i)
		}
	}
	// A vector naming a version no shard ever published, or of the wrong
	// length, is unresolvable.
	bogus := append([]uint64(nil), gens[0].versions...)
	bogus[0] = 99
	if _, ok := h.sharded.MergedSnapshotAt(bogus); ok {
		t.Fatal("bogus version vector resolved")
	}
	if _, ok := h.sharded.MergedSnapshotAt(gens[0].versions[:1]); ok {
		t.Fatal("short version vector resolved")
	}
	// Push every shard past its history bound: the earliest vector's
	// constituents evict and the lookup reports the miss.
	for r := 0; r < remstore.DefaultMaxHistory+1; r++ {
		h.round([]int{ml.DirtyAll})
	}
	if _, ok := h.sharded.MergedSnapshotAt(gens[0].versions); ok {
		t.Fatal("evicted generation still resolvable")
	}
	latest, versions, err := h.sharded.MergedSnapshotVersions()
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := h.sharded.MergedSnapshotAt(versions); !ok || !got.Equal(latest) {
		t.Fatal("current generation not resolvable through its own vector")
	}
}
