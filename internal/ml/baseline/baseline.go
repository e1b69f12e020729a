// Package baseline implements the paper's reference estimator: predict the
// mean RSS per MAC address, ignoring position entirely. Every smarter model
// in Figure 8 is judged against it (RMSE 4.8107 dBm on the paper's data).
// The per-MAC baseline is an ml.PerKey over GlobalMean: each MAC's
// sub-model is the mean of its own samples.
package baseline

import (
	"repro/internal/ml"
)

// GlobalMean predicts the overall training mean regardless of features.
// Alone it is the weakest sensible reference, useful in ablations; per
// key (ml.PerKey) it is the paper's mean-per-MAC baseline.
//
// GlobalMean is incremental: it keeps a running sum, so Observe folds a
// batch in constant time per row and the mean is byte-identical to a
// from-scratch Fit on the cumulative targets (the addition sequence is
// the cumulative row order).
type GlobalMean struct {
	dim  int // fitted feature dimension; 0 before Fit
	sum  float64
	n    int
	mean float64
}

var _ ml.IncrementalEstimator = (*GlobalMean)(nil)

// Fit implements ml.Estimator.
func (g *GlobalMean) Fit(x [][]float64, y []float64) error {
	if err := ml.ValidateTrainingData(x, y); err != nil {
		return err
	}
	g.dim, g.sum, g.n = len(x[0]), 0, 0
	g.add(y)
	return nil
}

// Observe implements ml.IncrementalEstimator. Every row moves the mean,
// so every key is dirty.
func (g *GlobalMean) Observe(x [][]float64, y []float64) ([]int, error) {
	if g.dim == 0 {
		return nil, ml.ErrNotFitted
	}
	if err := ml.ValidateObserved(x, y, g.dim); err != nil {
		return nil, err
	}
	if len(x) == 0 {
		return nil, nil
	}
	g.add(y)
	return []int{ml.DirtyAll}, nil
}

// Refit implements ml.IncrementalEstimator. Observe already folds each
// batch into the mean, so there is nothing deferred.
func (g *GlobalMean) Refit() error {
	if g.dim == 0 {
		return ml.ErrNotFitted
	}
	return nil
}

// add folds targets into the running sum in order.
func (g *GlobalMean) add(y []float64) {
	for _, v := range y {
		g.sum += v
	}
	g.n += len(y)
	g.mean = g.sum / float64(g.n)
}

// Predict implements ml.Estimator.
func (g *GlobalMean) Predict(_ []float64) (float64, error) {
	if g.dim == 0 {
		return 0, ml.ErrNotFitted
	}
	return g.mean, nil
}
