package ml

import (
	"errors"
	"math"
	"testing"

	"repro/internal/simrand"
)

// noisyEstimator memorises the training targets' mean plus a
// parameter-dependent bias, making grid-search scores parameter-sensitive.
type noisyEstimator struct {
	bias   float64
	mean   float64
	fitted bool
}

func (e *noisyEstimator) Fit(x [][]float64, y []float64) error {
	if err := ValidateTrainingData(x, y); err != nil {
		return err
	}
	var sum float64
	for _, v := range y {
		sum += v
	}
	e.mean = sum / float64(len(y))
	e.fitted = true
	return nil
}

func (e *noisyEstimator) Predict(q []float64) (float64, error) {
	if !e.fitted {
		return 0, ErrNotFitted
	}
	return e.mean + e.bias*math.Sin(q[0]), nil
}

func searchFixture(rng *simrand.Source) ([][]float64, []float64, []Params) {
	x := make([][]float64, 120)
	y := make([]float64, 120)
	for i := range x {
		x[i] = []float64{rng.Range(0, 4), rng.Range(0, 3)}
		y[i] = -60 + 5*math.Sin(x[i][0]) + rng.Gauss(0, 0.5)
	}
	return x, y, Grid(map[string][]float64{"bias": {0, 1, 2, 3, 4, 5, 6, 7}})
}

// TestGridSearchWorkerCountInvariance: identical rng seeds and candidate
// sets must yield byte-identical result lists for every worker count.
func TestGridSearchWorkerCountInvariance(t *testing.T) {
	factory := func(p Params) (Estimator, error) { return &noisyEstimator{bias: p["bias"]}, nil }
	var baseline []SearchResult
	for _, workers := range []int{1, 2, 8} {
		rng := simrand.New(99)
		x, y, candidates := searchFixture(rng)
		got, err := GridSearch(factory, candidates, x, y, 0.25, rng, workers)
		if err != nil {
			t.Fatal(err)
		}
		if baseline == nil {
			baseline = got
			continue
		}
		if len(got) != len(baseline) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(baseline))
		}
		for i := range got {
			if got[i].RMSE != baseline[i].RMSE || got[i].Params["bias"] != baseline[i].Params["bias"] {
				t.Fatalf("workers=%d: result %d = %+v, want %+v", workers, i, got[i], baseline[i])
			}
		}
	}
}

// TestGridSearchWorkersErrorPropagates: a factory failure must cancel the
// search and surface the error at every worker bound.
func TestGridSearchWorkersErrorPropagates(t *testing.T) {
	boom := errors.New("bad params")
	factory := func(p Params) (Estimator, error) {
		if p["bias"] == 3 {
			return nil, boom
		}
		return &noisyEstimator{bias: p["bias"]}, nil
	}
	x, y, candidates := searchFixture(simrand.New(5))
	for _, workers := range []int{1, 8} {
		if _, err := GridSearch(factory, candidates, x, y, 0.25, simrand.New(7), workers); !errors.Is(err, boom) {
			t.Errorf("workers=%d: error = %v, want boom", workers, err)
		}
	}
}

// TestPredictAllUsesBatchPath: an estimator advertising BatchPredictor
// must be served through it.
func TestPredictAllUsesBatchPath(t *testing.T) {
	e := &batchCounting{}
	out, err := PredictAll(e, [][]float64{{1}, {2}, {3}})
	if err != nil || len(out) != 3 {
		t.Fatalf("PredictAll = %v, %v", out, err)
	}
	if e.batchCalls != 1 || e.singleCalls != 0 {
		t.Errorf("batch path not taken: batch=%d single=%d", e.batchCalls, e.singleCalls)
	}
}

type batchCounting struct {
	batchCalls, singleCalls int
}

func (b *batchCounting) Fit(x [][]float64, y []float64) error { return nil }
func (b *batchCounting) Predict(q []float64) (float64, error) {
	b.singleCalls++
	return q[0], nil
}
func (b *batchCounting) PredictBatch(x [][]float64) ([]float64, error) {
	b.batchCalls++
	out := make([]float64, len(x))
	for i, q := range x {
		out[i] = q[0]
	}
	return out, nil
}
