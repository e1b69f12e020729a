package remshard

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/rem"
	"repro/internal/simrand"
)

// randomVocab draws a MAC-shaped random vocabulary with no duplicates.
func randomVocab(rng *simrand.Source, n int) []string {
	seen := map[string]bool{}
	keys := make([]string, 0, n)
	for len(keys) < n {
		k := fmt.Sprintf("%02x:%02x:%02x", rng.Intn(256), rng.Intn(256), rng.Intn(256))
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// TestPartitionerQuick is the routing property: for random vocabularies
// and shard counts, the hash and every test layout assign each key to
// exactly one shard — deterministically, in range — and the sharded
// store's per-shard key lists form an exact partition of the vocabulary.
func TestPartitionerQuick(t *testing.T) {
	rng := simrand.New(20260726)
	for trial := 0; trial < 60; trial++ {
		nKeys := 1 + rng.Intn(40)
		shards := 1 + rng.Intn(8)
		keys := randomVocab(rng, nKeys)
		assign := make(map[string]int, nKeys)
		partial := make(map[string]int, nKeys)
		for i, k := range keys {
			assign[k] = rng.Intn(shards)
			if i%2 == 0 {
				partial[k] = rng.Intn(shards)
			}
		}
		parts := map[string]shardOfFunc{
			"hash":     hashByKey,
			"explicit": func(key string, _ int) int { return assign[key] },
			"explicit+fallback": func(key string, n int) int {
				if s, ok := partial[key]; ok {
					return s
				}
				return hashByKey(key, n)
			},
			"range": func(key string, n int) int {
				for i, k := range keys {
					if k == key {
						return i * n / len(keys)
					}
				}
				return -1
			},
		}
		for name, p := range parts {
			for _, k := range keys {
				s1, s2 := p(k, shards), p(k, shards)
				if s1 != s2 {
					t.Fatalf("trial %d %s: non-deterministic routing for %q: %d then %d", trial, name, k, s1, s2)
				}
				if s1 < 0 || s1 >= shards {
					t.Fatalf("trial %d %s: key %q routed to %d of %d shards", trial, name, k, s1, shards)
				}
			}
			st, err := newStore(keys, Config{Shards: shards, Volume: testVol, Resolution: [3]int{3, 3, 2}}, p)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			// Exactly-one-shard: the shard key lists are disjoint and
			// cover the vocabulary.
			owner := map[string]int{}
			total := 0
			for si := 0; si < st.NumShards(); si++ {
				for _, k := range st.ShardKeys(si) {
					if prev, dup := owner[k]; dup {
						t.Fatalf("trial %d %s: key %q owned by shards %d and %d", trial, name, k, prev, si)
					}
					owner[k] = si
					total++
				}
			}
			if total != nKeys {
				t.Fatalf("trial %d %s: shard lists hold %d keys, vocabulary has %d", trial, name, total, nKeys)
			}
			for _, k := range keys {
				si, ok := st.ShardFor(k)
				if !ok || owner[k] != si {
					t.Fatalf("trial %d %s: ShardFor(%q) = %d,%v but list owner is %d", trial, name, k, si, ok, owner[k])
				}
			}
		}
	}
}

// TestShardedConcurrentHammer runs queries of every kind against a
// sharded store while a writer drives localized rebuild rounds —
// under -race this is the routing-layer safety proof — and then checks
// that the aggregate Stats totals equal the sum of the per-shard stats.
func TestShardedConcurrentHammer(t *testing.T) {
	const (
		nKeys   = 12
		shards  = 4
		readers = 6
		rounds  = 30
	)
	keys := testKeys(nKeys)
	st, err := New(keys, Config{Shards: shards, Volume: testVol, Resolution: [3]int{5, 4, 3}})
	if err != nil {
		t.Fatal(err)
	}
	model := newEvolvingModel(nKeys)
	// First round: everything, so every shard serves before the readers
	// start asserting non-empty answers.
	model.touch([]int{0})
	if _, err := st.Rebuild(allKeys(nKeys), model.predict, rem.BuildOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	probes := testProbes(8)
	stop := make(chan struct{})
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := simrand.New(uint64(1000 + r))
			buf := make([]float64, len(probes))
			bestKeys := make([]string, len(probes))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := keys[rng.Intn(nKeys)]
				switch i % 4 {
				case 0:
					if _, _, err := st.At(key, probes[i%len(probes)]); err != nil {
						errs <- err
						return
					}
				case 1:
					if _, err := st.AtBatchInto(buf, key, probes); err != nil {
						errs <- err
						return
					}
				case 2:
					if _, _, _, err := st.Strongest(probes[i%len(probes)]); err != nil {
						errs <- err
						return
					}
				default:
					if err := st.StrongestBatchInto(bestKeys, buf, probes); err != nil {
						errs <- err
						return
					}
				}
				_ = st.Stats()
			}
		}(r)
	}
	// The writer: localized rounds touching 1–3 keys each.
	wrng := simrand.New(42)
	for g := 0; g < rounds; g++ {
		dirty := []int{wrng.Intn(nKeys)}
		for wrng.Intn(2) == 0 && len(dirty) < 3 {
			dirty = append(dirty, wrng.Intn(nKeys))
		}
		model.touch(dirty)
		if _, err := st.Rebuild(dirty, model.predict, rem.BuildOptions{Workers: 2}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	stats := st.Stats()
	if stats.Rounds != rounds+1 {
		t.Fatalf("rounds = %d, want %d", stats.Rounds, rounds+1)
	}
	var pubs, shq uint64
	for _, ps := range stats.PerShard {
		pubs += ps.Publishes
		shq += ps.Queries
	}
	if stats.ShardPublishes != pubs || stats.ShardQueries != shq {
		t.Fatalf("totals %d/%d do not match per-shard sums %d/%d", stats.ShardPublishes, stats.ShardQueries, pubs, shq)
	}
	if stats.Queries == 0 || stats.ShardQueries == 0 {
		t.Fatalf("no queries recorded: %+v", stats)
	}
	// Key-routed queries count both logically and at the shard stores;
	// best-server queries only logically — so the logical total is at
	// least the store-level total.
	if stats.Queries < stats.ShardQueries {
		t.Fatalf("logical queries %d below store-level %d", stats.Queries, stats.ShardQueries)
	}
}

func allKeys(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
