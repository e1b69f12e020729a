package baseline

import (
	"errors"
	"math"
	"testing"

	"repro/internal/ml"
)

// rows builds xyz + 2-way one-hot features.
func rows() ([][]float64, []float64) {
	x := [][]float64{
		{0, 0, 0, 1, 0}, {1, 0, 0, 1, 0}, {2, 0, 0, 1, 0}, // key 0: mean −60
		{0, 1, 0, 0, 1}, {1, 1, 0, 0, 1}, // key 1: mean −80
	}
	y := []float64{-58, -60, -62, -78, -82}
	return x, y
}

// meanPerKey is the paper's mean-per-MAC baseline.
func meanPerKey() *ml.PerKey {
	return &ml.PerKey{Sub: func() (ml.Estimator, error) { return &GlobalMean{}, nil }}
}

func TestMeanPerKey(t *testing.T) {
	x, y := rows()
	m := meanPerKey()
	if _, err := m.Predict(x[0]); !errors.Is(err, ml.ErrNotFitted) {
		t.Errorf("unfitted error = %v", err)
	}
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	got, err := m.Predict([]float64{9, 9, 9, 1, 0})
	if err != nil || math.Abs(got+60) > 1e-12 {
		t.Errorf("key 0 prediction = %v, want −60 (position must be ignored)", got)
	}
	got, _ = m.Predict([]float64{0, 0, 0, 0, 1})
	if math.Abs(got+80) > 1e-12 {
		t.Errorf("key 1 prediction = %v, want −80", got)
	}
}

func TestMeanPerKeyFallsBackToGlobalMean(t *testing.T) {
	x, y := rows()
	for i := range x { // a third key that has no samples
		x[i] = append(x[i], 0)
	}
	m := meanPerKey()
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	globalMean := (-58.0 - 60 - 62 - 78 - 82) / 5
	// A key without samples → global mean.
	got, err := m.Predict([]float64{0, 0, 0, 0, 0, 1})
	if err != nil || math.Abs(got-globalMean) > 1e-12 {
		t.Errorf("unseen-key prediction = %v, want global mean %v", got, globalMean)
	}
	// No hot entry at all names no key: rejected, not averaged.
	if got, err := m.Predict([]float64{0, 0, 0, 0, 0, 0}); err == nil {
		t.Errorf("no-key prediction = %v, want an error", got)
	}
}

func TestMeanPerKeyValidation(t *testing.T) {
	x, y := rows()
	m := meanPerKey()
	xyz := make([][]float64, len(x))
	for i, row := range x {
		xyz[i] = row[:3]
	}
	if err := m.Fit(xyz, y); err == nil {
		t.Error("rows without a one-hot block accepted")
	}
	bad := [][]float64{{0, 0, 0, 1, 1}} // two hot entries
	if err := m.Fit(bad, []float64{1}); err == nil {
		t.Error("multi-hot row accepted")
	}
	if err := m.Fit(nil, nil); err == nil {
		t.Error("empty data accepted")
	}
	noHot := [][]float64{{0, 0, 0, 0, 0}}
	if err := m.Fit(noHot, []float64{1}); err == nil {
		t.Error("no-hot row accepted at fit time")
	}
}

func TestMeanPerKeyScaledOneHot(t *testing.T) {
	// The hot entry need not be 1 — scaled encodings (×3) must still work.
	x := [][]float64{
		{0, 0, 0, 3, 0}, {1, 0, 0, 3, 0},
		{0, 0, 0, 0, 3},
	}
	y := []float64{-50, -52, -90}
	m := meanPerKey()
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	got, _ := m.Predict([]float64{0, 0, 0, 3, 0})
	if math.Abs(got+51) > 1e-12 {
		t.Errorf("scaled one-hot prediction = %v, want −51", got)
	}
}

func TestGlobalMean(t *testing.T) {
	g := &GlobalMean{}
	if _, err := g.Predict(nil); !errors.Is(err, ml.ErrNotFitted) {
		t.Errorf("unfitted error = %v", err)
	}
	if err := g.Fit([][]float64{{1}, {2}, {3}}, []float64{-70, -72, -74}); err != nil {
		t.Fatal(err)
	}
	got, err := g.Predict([]float64{123})
	if err != nil || math.Abs(got+72) > 1e-12 {
		t.Errorf("global mean = %v, want −72", got)
	}
}
