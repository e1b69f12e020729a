package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/ml"
	"repro/internal/ml/knn"
	"repro/internal/simrand"
)

// keyedFixture fits a per-MAC kNN whose one-hot block (width keys,
// scaled by scale) starts at offset; only the first seen keys get
// samples, so the rest are served by the global fallback. It returns the
// estimator, the design dimension and probe positions.
func keyedFixture(t *testing.T, offset, keys, seen int, scale float64) (*knn.PerKey, int, []geom.Vec3) {
	t.Helper()
	rng := simrand.New(31)
	dim := offset + keys
	var x [][]float64
	var y []float64
	for k := 0; k < seen; k++ {
		for i := 0; i < 40; i++ {
			row := make([]float64, dim)
			row[0], row[1], row[2] = rng.Range(0, 4), rng.Range(0, 3), rng.Range(0, 2.6)
			row[offset+k] = scale
			x = append(x, row)
			y = append(y, -40-6*row[0]-3*row[1]-4*float64(k)-rng.Range(0, 5))
		}
	}
	est := &knn.PerKey{Sub: knn.PaperPlainConfig(), KeyOffset: offset}
	if err := est.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	probes := make([]geom.Vec3, 97)
	for i := range probes {
		probes[i] = geom.V(rng.Range(-0.5, 4.5), rng.Range(-0.5, 3.5), rng.Range(0, 2.6))
	}
	return est, dim, probes
}

// rowPath is the reference: the one-hot design rows answered row by row
// through Predict.
func rowPath(t *testing.T, est ml.Estimator, pts []geom.Vec3, key, dim int, scale float64) []float64 {
	t.Helper()
	out := make([]float64, len(pts))
	for i, row := range designRows(pts, key, dim, scale) {
		v, err := est.Predict(row)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = v
	}
	return out
}

func sameBits(a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d values vs %d", len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Errorf("value %d: %v vs %v", i, a[i], b[i])
		}
	}
	return nil
}

// TestKeyedPathMatchesRows is rule 6 for the keyed batch path: for every
// key — the ones with a sub-regressor and the ones served by the global
// fallback — BatchPredictorFor's keyed answer equals designRows +
// Predict bit for bit, with concurrent callers sharing the estimator.
func TestKeyedPathMatchesRows(t *testing.T) {
	for _, scale := range []float64{1, 3} {
		t.Run(fmt.Sprintf("scale=%g", scale), func(t *testing.T) {
			const keys, seen = 7, 4
			est, dim, probes := keyedFixture(t, 3, keys, seen, scale)
			if _, ok := keyedPath(est, scale); !ok {
				t.Fatal("a one-hot encoding at offset 3 did not take the keyed path")
			}
			want := make([][]float64, keys)
			for k := range want {
				want[k] = rowPath(t, est, probes, k, dim, scale)
			}
			predict := BatchPredictorFor(est, dim, scale)
			var wg sync.WaitGroup
			errs := make(chan error, 4*keys)
			for g := 0; g < 4; g++ {
				for k := 0; k < keys; k++ {
					wg.Add(1)
					go func(k int) {
						defer wg.Done()
						got, err := predict(probes, k)
						if err == nil {
							err = sameBits(got, want[k])
						}
						if err != nil {
							errs <- fmt.Errorf("key %d: %w", k, err)
						}
					}(k)
				}
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// TestKeyedPathDeclines pins when BatchPredictorFor keeps the row path:
// an encoding without the one-hot block (scale 0 routes every key to the
// global fallback) and an estimator routing from another column (its
// KeyOffset reads designRows' block shifted by one). In both, the keyed
// answer would differ, and the served one must be the row path's.
func TestKeyedPathDeclines(t *testing.T) {
	cases := []struct {
		name   string
		offset int
		scale  float64
	}{
		{"scale=0", 3, 0},
		{"KeyOffset=4", 4, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			const keys = 5
			est, dim, probes := keyedFixture(t, c.offset, keys, keys, 1)
			if _, ok := keyedPath(est, c.scale); ok {
				t.Fatal("took the keyed path")
			}
			predict := BatchPredictorFor(est, dim, c.scale)
			differs := false
			for k := 0; k < keys; k++ {
				got, err := predict(probes, k)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameBits(got, rowPath(t, est, probes, k, dim, c.scale)); err != nil {
					t.Fatalf("key %d: %v", k, err)
				}
				keyed, err := est.PredictKeyed(designRows(probes, k, 3, 0), k)
				if err != nil {
					t.Fatal(err)
				}
				differs = differs || sameBits(got, keyed) != nil
			}
			if !differs {
				t.Fatal("fixture cannot tell the keyed path from the row path")
			}
		})
	}
}
