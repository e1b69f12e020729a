package nn

import (
	"math"
	"testing"

	"repro/internal/ml"
	"repro/internal/simrand"
)

func nnStream(n int, rng *simrand.Source) ([][]float64, []float64) {
	const nKeys = 4
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, 3+nKeys)
		row[0], row[1], row[2] = rng.Range(0, 4), rng.Range(0, 3), rng.Range(0, 2.6)
		row[3+rng.Intn(nKeys)] = 1
		x[i] = row
		y[i] = -55 - 6*row[0] + 3*row[1] - 2*row[2] + rng.Gauss(0, 1)
	}
	return x, y
}

func smallCfg(seed uint64) Config {
	cfg := PaperConfig(seed)
	cfg.Epochs = 12
	return cfg
}

// incremental lifts a fresh network into the streaming contract the way
// the generation loop does: the NN has no native incremental path, so it
// runs through ml.RefitAdapter.
func incremental(t *testing.T, cfg Config) ml.IncrementalEstimator {
	t.Helper()
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inc := ml.NewRefitAdapter(net)
	if _, ok := inc.(*ml.RefitAdapter); !ok {
		t.Fatalf("NewRefitAdapter(*Network) = %T, want the refit adapter", inc)
	}
	return inc
}

// TestNetworkRefitFullRetrainIdentity is rule 7 for the NN: Refit on the
// cumulative data predicts byte-identically to a fresh network of the
// same Config fitted on that data.
func TestNetworkRefitFullRetrainIdentity(t *testing.T) {
	rng := simrand.New(31)
	x, y := nnStream(180, rng)
	queries, _ := nnStream(32, rng)
	inc := incremental(t, smallCfg(99))
	if err := inc.Fit(x[:100], y[:100]); err != nil {
		t.Fatal(err)
	}
	for _, cut := range [][2]int{{100, 130}, {130, 180}} {
		dirty, err := inc.Observe(x[cut[0]:cut[1]], y[cut[0]:cut[1]])
		if err != nil {
			t.Fatal(err)
		}
		if len(dirty) != 1 || dirty[0] != ml.DirtyAll {
			t.Fatalf("dirty = %v, want [DirtyAll]", dirty)
		}
		if err := inc.Refit(); err != nil {
			t.Fatal(err)
		}
		fresh, err := New(smallCfg(99))
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.Fit(x[:cut[1]], y[:cut[1]]); err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			a, err := inc.Predict(q)
			if err != nil {
				t.Fatal(err)
			}
			b, err := fresh.Predict(q)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("cut %v query %d: refit %x ≠ from-scratch %x", cut, i, a, b)
			}
		}
	}
}

// TestNetworkObserveValidation: unfitted observes and dim mismatches are
// rejected; empty batches are no-ops; Refit without pending is a no-op
// that keeps predictions stable.
func TestNetworkObserveValidation(t *testing.T) {
	net := incremental(t, smallCfg(3))
	if _, err := net.Observe([][]float64{{1, 2, 3}}, []float64{-50}); err == nil {
		t.Error("Observe before Fit accepted")
	}
	rng := simrand.New(5)
	x, y := nnStream(60, rng)
	if err := net.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Observe([][]float64{{1, 2}}, []float64{-50}); err == nil {
		t.Error("dim-mismatched observe accepted")
	}
	before, err := net.Predict(x[0])
	if err != nil {
		t.Fatal(err)
	}
	dirty, err := net.Observe(nil, nil)
	if err != nil || dirty != nil {
		t.Fatalf("empty observe = %v, %v", dirty, err)
	}
	if err := net.Refit(); err != nil {
		t.Fatal(err)
	}
	after, err := net.Predict(x[0])
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(before) != math.Float64bits(after) {
		t.Fatal("no-op Refit changed predictions")
	}
}
