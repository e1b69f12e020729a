package ml

import (
	"fmt"
	"sort"

	"repro/internal/parallel"
	"repro/internal/simrand"
)

// Params is one hyper-parameter assignment.
type Params map[string]float64

// clone copies a Params map.
func (p Params) clone() Params {
	out := make(Params, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// Grid enumerates the cartesian product of per-parameter candidate values,
// in deterministic (sorted-key) order — the "exhaustive set of
// hyperparameters" the paper's grid search walks.
func Grid(space map[string][]float64) []Params {
	keys := make([]string, 0, len(space))
	for k := range space {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := []Params{{}}
	for _, k := range keys {
		var next []Params
		for _, base := range out {
			for _, v := range space[k] {
				p := base.clone()
				p[k] = v
				next = append(next, p)
			}
		}
		out = next
	}
	return out
}

// SearchResult is one grid-search evaluation.
type SearchResult struct {
	// Params is the evaluated assignment.
	Params Params
	// RMSE is its validation score.
	RMSE float64
}

// GridSearch evaluates every parameter assignment by building an estimator
// via the factory, training on a sub-split of the training data and scoring
// on a held-out validation split ("the validation set was taken out of the
// training set", §III-B). It returns all results sorted by RMSE, best first.
//
// Candidates are evaluated on the shared worker pool, at most workers at
// a time (≤ 0 means GOMAXPROCS). The validation split is drawn from rng
// before any candidate runs, results land in candidate order, and the
// final sort is stable — so the output is byte-identical to the
// sequential run for every worker count. Factories needing randomness
// must derive it from the Params themselves (e.g. a seed entry) rather
// than consume a shared stream inside the pool.
func GridSearch(
	factory func(Params) (Estimator, error),
	candidates []Params,
	trainX [][]float64, trainY []float64,
	valFrac float64,
	rng *simrand.Source,
	workers int,
) ([]SearchResult, error) {
	if len(candidates) == 0 {
		return nil, fmt.Errorf("ml: grid search needs candidates")
	}
	if err := ValidateTrainingData(trainX, trainY); err != nil {
		return nil, err
	}
	if valFrac <= 0 || valFrac >= 1 {
		return nil, fmt.Errorf("ml: validation fraction %g outside (0, 1)", valFrac)
	}
	perm := rng.Perm(len(trainX))
	nVal := int(float64(len(trainX)) * valFrac)
	if nVal < 1 || nVal >= len(trainX) {
		return nil, fmt.Errorf("ml: validation split of %d rows from %d is degenerate", nVal, len(trainX))
	}
	var subX, valX [][]float64
	var subY, valY []float64
	for i, idx := range perm {
		if i < nVal {
			valX = append(valX, trainX[idx])
			valY = append(valY, trainY[idx])
		} else {
			subX = append(subX, trainX[idx])
			subY = append(subY, trainY[idx])
		}
	}

	results, err := parallel.Map(len(candidates), workers, func(i int) (SearchResult, error) {
		p := candidates[i]
		est, err := factory(p)
		if err != nil {
			return SearchResult{}, fmt.Errorf("ml: building estimator for %v: %w", p, err)
		}
		rmse, err := EvaluateRMSE(est, subX, subY, valX, valY)
		if err != nil {
			return SearchResult{}, fmt.Errorf("ml: evaluating %v: %w", p, err)
		}
		return SearchResult{Params: p, RMSE: rmse}, nil
	})
	if err != nil {
		return nil, err
	}
	sort.SliceStable(results, func(i, j int) bool { return results[i].RMSE < results[j].RMSE })
	return results, nil
}
