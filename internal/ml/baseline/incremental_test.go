package baseline

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/simrand"
)

// streamBatches builds a synthetic stream over nKeys one-hot keys, cut
// into batches; batch 0 deliberately leaves some keys unseen.
func streamBatches(nKeys int, sizes []int, maxKeyPerBatch []int) ([][][]float64, [][]float64) {
	rng := simrand.New(321)
	xs := make([][][]float64, len(sizes))
	ys := make([][]float64, len(sizes))
	for b, n := range sizes {
		for i := 0; i < n; i++ {
			row := make([]float64, 3+nKeys)
			row[0], row[1], row[2] = rng.Range(0, 4), rng.Range(0, 3), rng.Range(0, 2.6)
			row[3+rng.Intn(maxKeyPerBatch[b])] = 1
			xs[b] = append(xs[b], row)
			ys[b] = append(ys[b], rng.Range(-90, -40))
		}
	}
	return xs, ys
}

func cumulative(xs [][][]float64, ys [][]float64, upto int) ([][]float64, []float64) {
	var cx [][]float64
	var cy []float64
	for b := 0; b <= upto; b++ {
		cx = append(cx, xs[b]...)
		cy = append(cy, ys[b]...)
	}
	return cx, cy
}

// TestMeanPerKeyIncrementalIdentity is rule 7 at the estimator layer:
// after every Observe, the running-mean model predicts byte-identically to
// a fresh mean-per-key baseline fitted on the cumulative rows.
func TestMeanPerKeyIncrementalIdentity(t *testing.T) {
	const nKeys = 6
	xs, ys := streamBatches(nKeys, []int{20, 7, 13}, []int{3, 5, nKeys})
	inc := meanPerKey()
	if err := inc.Fit(xs[0], ys[0]); err != nil {
		t.Fatal(err)
	}
	queries := make([][]float64, nKeys)
	for k := range queries {
		q := make([]float64, 3+nKeys)
		q[3+k] = 1
		queries[k] = q
	}
	for b := 1; b < len(xs); b++ {
		if _, err := inc.Observe(xs[b], ys[b]); err != nil {
			t.Fatal(err)
		}
		if err := inc.Refit(); err != nil {
			t.Fatal(err)
		}
		cx, cy := cumulative(xs, ys, b)
		fresh := meanPerKey()
		if err := fresh.Fit(cx, cy); err != nil {
			t.Fatal(err)
		}
		for k, q := range queries {
			got, err := inc.Predict(q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Predict(q)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("batch %d key %d: incremental %x ≠ from-scratch %x", b, k, got, want)
			}
		}
	}
}

// TestMeanPerKeyDirtySet: Observe reports the batch's keys plus every key
// still served by the (moved) global mean, and nothing else once all keys
// have samples.
func TestMeanPerKeyDirtySet(t *testing.T) {
	const nKeys = 5
	mk := func(key int, v float64) ([]float64, float64) {
		row := make([]float64, 3+nKeys)
		row[3+key] = 1
		return row, v
	}
	m := meanPerKey()
	x0, y0 := mk(0, -50)
	x1, y1 := mk(1, -60)
	if err := m.Fit([][]float64{x0, x1}, []float64{y0, y1}); err != nil {
		t.Fatal(err)
	}
	// Keys 2, 3, 4 are unseen: any new sample moves their global-mean
	// fallback, so observing key 1 dirties {1, 2, 3, 4}.
	xo, yo := mk(1, -65)
	dirty, err := m.Observe([][]float64{xo}, []float64{yo})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 2, 3, 4}; !reflect.DeepEqual(dirty, want) {
		t.Fatalf("dirty = %v, want %v", dirty, want)
	}
	// Give every key a sample; then a key-0 delta dirties only key 0.
	var xs [][]float64
	var ys []float64
	for k := 2; k < nKeys; k++ {
		x, y := mk(k, -70)
		xs = append(xs, x)
		ys = append(ys, y)
	}
	if _, err := m.Observe(xs, ys); err != nil {
		t.Fatal(err)
	}
	x2, y2 := mk(0, -55)
	dirty, err = m.Observe([][]float64{x2}, []float64{y2})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0}; !reflect.DeepEqual(dirty, want) {
		t.Fatalf("dirty after full coverage = %v, want %v", dirty, want)
	}
}

// TestMeanPerKeyObserveValidation: unfitted observes, shape mismatches and
// malformed one-hot rows are rejected without corrupting state.
func TestMeanPerKeyObserveValidation(t *testing.T) {
	m := meanPerKey()
	if _, err := m.Observe([][]float64{{1, 2, 3, 1}}, []float64{-50}); err == nil {
		t.Error("Observe before Fit accepted")
	}
	row := []float64{0, 0, 0, 1, 0}
	if err := m.Fit([][]float64{row, row}, []float64{-50, -52}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Observe([][]float64{{1, 2}}, []float64{-60}); err == nil {
		t.Error("dim-mismatched observe accepted")
	}
	bad := []float64{0, 0, 0, 1, 1} // two hot entries
	if _, err := m.Observe([][]float64{bad}, []float64{-60}); err == nil {
		t.Error("multi-hot observe accepted")
	}
	// State must be unchanged by the rejected batches.
	got, err := m.Predict(row)
	if err != nil {
		t.Fatal(err)
	}
	if got != -51 {
		t.Fatalf("mean after rejected observes = %v, want -51", got)
	}
	// Empty batches are fine and dirty nothing.
	dirty, err := m.Observe(nil, nil)
	if err != nil || dirty != nil {
		t.Fatalf("empty observe = %v, %v", dirty, err)
	}
	if err := m.Refit(); err != nil {
		t.Fatal(err)
	}
}
