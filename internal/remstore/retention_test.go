package remstore

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/geom"
	"repro/internal/rem"
)

// rebuildOne derives the next generation with exactly one dirty key whose
// cells all hold v.
func rebuildOne(t *testing.T, m *rem.Map, key int, v float64) *rem.Map {
	t.Helper()
	next, err := m.RebuildKeys([]int{key}, func(centers []geom.Vec3, k int) ([]float64, error) {
		out := make([]float64, len(centers))
		for i := range out {
			out[i] = v
		}
		return out, nil
	}, rem.BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return next
}

// TestRetentionMaxCount: the count bound New sets prunes at publish,
// oldest first, and counts every eviction.
func TestRetentionMaxCount(t *testing.T) {
	st := New(2)
	keys := []string{"a", "b", "c"}
	for g := 1; g <= 5; g++ {
		if _, err := st.Publish(constMap(t, float64(-g), keys), len(keys)); err != nil {
			t.Fatal(err)
		}
	}
	stats := st.Stats()
	if stats.HistoryLen != 2 || stats.Evictions != 3 {
		t.Fatalf("history = %d evictions = %d, want 2 / 3", stats.HistoryLen, stats.Evictions)
	}
	h := st.History()
	if h[0].Version() != 4 || h[1].Version() != 5 {
		t.Fatalf("retained versions = %d, %d; want 4, 5", h[0].Version(), h[1].Version())
	}
}

// TestRetentionLiveness: evicting older generations never invalidates a
// retained snapshot — its tiles (including those shared with evicted
// parents) stay readable bit-for-bit — and LiveTiles accounts the
// distinct tiles the retained suffix actually references.
func TestRetentionLiveness(t *testing.T) {
	st := New(3)
	keys := []string{"a", "b", "c", "d"}
	m1 := constMap(t, -1, keys)
	if _, err := st.Publish(m1, len(keys)); err != nil {
		t.Fatal(err)
	}
	m2 := rebuildOne(t, m1, 1, -2) // shares 3 of 4 keys' tiles with m1
	if _, err := st.Publish(m2, 1); err != nil {
		t.Fatal(err)
	}
	m3 := rebuildOne(t, m2, 2, -3) // shares 3 of 4 keys' tiles with m2
	if _, err := st.Publish(m3, 1); err != nil {
		t.Fatal(err)
	}
	tpk := m1.TilesPerKey()
	total := m1.NumTiles()
	// Live now: m1's full set + 1 rebuilt key per derivation.
	if got := st.LiveTiles(); got != total+2*tpk {
		t.Fatalf("LiveTiles = %d, want %d", got, total+2*tpk)
	}

	// Capture m2's exact answers while its whole chain is retained.
	probe := geom.V(1.3, 0.7, 1.9)
	want := make([]float64, len(keys))
	for i, k := range keys {
		v, err := m2.At(k, probe)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}

	// Publishing m4 evicts m1 — the parent m2 shares tiles with — then
	// a forced GC would visibly recycle a wrongly-released tile.
	m4 := rebuildOne(t, m3, 3, -4) // shares 3 of 4 keys' tiles with m3
	if _, err := st.Publish(m4, 1); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().HistoryLen; got != 3 {
		t.Fatalf("history = %d, want 3", got)
	}
	runtime.GC()
	for i, k := range keys {
		v, err := m2.At(k, probe)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(v) != math.Float64bits(want[i]) {
			t.Fatalf("key %s changed after eviction: %v != %v", k, v, want[i])
		}
	}
	// Sharing between the retained generations is untouched by the eviction.
	if got := m3.SharedTiles(m2); got != total-tpk {
		t.Fatalf("SharedTiles(m3, m2) = %d, want %d", got, total-tpk)
	}
	// The retained suffix references m2's full set plus the rebuilt key
	// of each of m3 and m4.
	if got := st.LiveTiles(); got != total+2*tpk {
		t.Fatalf("LiveTiles after eviction = %d, want %d", got, total+2*tpk)
	}
}
