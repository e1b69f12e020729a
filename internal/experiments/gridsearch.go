package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/dataset"
	"repro/internal/mission"
	"repro/internal/ml"
	"repro/internal/ml/knn"
	"repro/internal/simrand"
)

// GridSearchResult is experiment E10: reproducing the paper's §III-B
// hyper-parameter tuning. The paper grid-searched the kNN regressor over an
// "exhaustive set of hyperparameters" and reports the winners —
// metric=minkowski with p=2, weights=distance, k=3 for the plain variant
// and k=16 for the one-hot×3 variant. This experiment re-runs that search
// with our from-scratch grid-search harness.
type GridSearchResult struct {
	// PlainTop are the best assignments for the plain (one-hot×1) encoding.
	PlainTop []ml.SearchResult
	// ScaledTop are the best assignments for the one-hot×3 encoding.
	ScaledTop []ml.SearchResult
	// Evaluated is the number of grid points per encoding.
	Evaluated int
}

// knnSpace is the searched hyper-parameter space.
var knnSpace = map[string][]float64{
	"k":       {1, 2, 3, 5, 8, 16, 32},
	"weights": {float64(knn.Uniform), float64(knn.Distance)},
	"p":       {1, 2},
}

// GridSearchReproduction runs E10. The 28 grid points per encoding are
// evaluated concurrently on the worker pool (≤ 0 means GOMAXPROCS); the
// two encodings draw from independent derived streams, so every worker
// count reproduces the same ranking.
func GridSearchReproduction(seed uint64, workers int) (*GridSearchResult, error) {
	ctrl, err := mission.NewPaperController(mission.DefaultOptions(seed))
	if err != nil {
		return nil, err
	}
	data, _, err := ctrl.Run()
	if err != nil {
		return nil, err
	}
	pre, err := dataset.Preprocess(data, dataset.MinSamplesPerMAC)
	if err != nil {
		return nil, err
	}
	rng := simrand.New(seed).Derive("gridsearch")
	train, _, err := pre.Split(0.75, rng.Derive("split"))
	if err != nil {
		return nil, err
	}

	factory := func(p ml.Params) (ml.Estimator, error) {
		return knn.New(knn.Config{
			K:          int(p["k"]),
			Weights:    knn.Weighting(p["weights"]),
			MinkowskiP: p["p"],
		})
	}
	candidates := ml.Grid(knnSpace)

	search := func(opt dataset.FeatureOptions, name string) ([]ml.SearchResult, error) {
		trX, trY := train.DesignMatrix(opt)
		// "The validation set was taken out of the training set" (§III-B).
		results, err := ml.GridSearch(factory, candidates, trX, trY, 0.25, rng.Derive(name), workers)
		if err != nil {
			return nil, err
		}
		top := 5
		if len(results) < top {
			top = len(results)
		}
		return results[:top], nil
	}

	res := &GridSearchResult{Evaluated: len(candidates)}
	if res.PlainTop, err = search(dataset.FeatureOptions{OneHotMACScale: 1}, "plain"); err != nil {
		return nil, err
	}
	if res.ScaledTop, err = search(dataset.FeatureOptions{OneHotMACScale: 3}, "scaled"); err != nil {
		return nil, err
	}
	return res, nil
}

// WriteText renders E10.
func (r *GridSearchResult) WriteText(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "kNN hyper-parameter grid search (%d grid points per encoding; §III-B)\n", r.Evaluated)
	render := func(label, paper string, top []ml.SearchResult) {
		fmt.Fprintf(tw, "%s (paper winner: %s)\n", label, paper)
		fmt.Fprintln(tw, "rank\tk\tweights\tp\tvalidation RMSE (dB)")
		for i, sr := range top {
			fmt.Fprintf(tw, "%d\t%.0f\t%s\t%.0f\t%.4f\n",
				i+1, sr.Params["k"], knn.Weighting(sr.Params["weights"]), sr.Params["p"], sr.RMSE)
		}
	}
	render("one-hot×1 encoding", "k=3, weights=distance, p=2", r.PlainTop)
	render("one-hot×3 encoding", "k=16, weights=distance, p=2", r.ScaledTop)
	return tw.Flush()
}

// BestPlain returns the winning assignment for the plain encoding.
func (r *GridSearchResult) BestPlain() ml.Params { return r.PlainTop[0].Params }

// BestScaled returns the winning assignment for the scaled encoding.
func (r *GridSearchResult) BestScaled() ml.Params { return r.ScaledTop[0].Params }
