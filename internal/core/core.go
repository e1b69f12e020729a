// Package core assembles the paper's toolchain end to end — the system's
// primary contribution: UAV-collected, location-annotated signal samples are
// streamed into an ML stage, estimators are trained and compared (Figure 8),
// and the best one is materialised into a queryable fine-grained 3-D Radio
// Environmental Map.
package core

import (
	"errors"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/mission"
	"repro/internal/ml"
	"repro/internal/ml/baseline"
	"repro/internal/ml/knn"
	"repro/internal/ml/nn"
	"repro/internal/parallel"
	"repro/internal/rem"
	"repro/internal/simrand"
)

// EstimatorSpec names an estimator together with its feature encoding.
type EstimatorSpec struct {
	// Name labels the estimator in reports (Figure 8's x-axis).
	Name string
	// Features selects the design-matrix encoding.
	Features dataset.FeatureOptions
	// Build constructs a fresh estimator.
	Build func() (ml.Estimator, error)
}

// PaperEstimators returns the estimator suite of the paper's Figure 8: the
// per-MAC-mean baseline, the plain tuned kNN, the scaled-one-hot kNN (the
// paper's best), the per-MAC kNN, and the tuned neural network.
func PaperEstimators(seed uint64) []EstimatorSpec {
	plain := dataset.FeatureOptions{OneHotMACScale: 1}
	scaled := dataset.FeatureOptions{OneHotMACScale: 3}
	return []EstimatorSpec{
		{
			Name:     "baseline mean-per-MAC",
			Features: plain,
			Build:    perMAC(func() (ml.Estimator, error) { return &baseline.GlobalMean{}, nil }),
		},
		{
			Name:     "kNN k=3 distance-weighted",
			Features: plain,
			Build:    func() (ml.Estimator, error) { return knn.New(knn.PaperPlainConfig()) },
		},
		{
			Name:     "kNN one-hot×3 k=16",
			Features: scaled,
			Build:    func() (ml.Estimator, error) { return knn.New(knn.PaperScaledConfig()) },
		},
		DefaultStreamSpec(), // the per-MAC kNN
		{
			Name:     "NN 16-node sigmoid Adam",
			Features: plain,
			Build:    func() (ml.Estimator, error) { return nn.New(nn.PaperConfig(seed)) },
		},
	}
}

// perMAC builds the per-MAC router (ml.PerKey) over sub: one sub-model
// per MAC, each trained on its own MAC's samples.
func perMAC(sub func() (ml.Estimator, error)) func() (ml.Estimator, error) {
	return func() (ml.Estimator, error) { return &ml.PerKey{Sub: sub}, nil }
}

// ExtendedEstimators appends the geostatistical interpolators this
// repository adds beyond the paper: per-MAC IDW and per-MAC ordinary
// kriging.
func ExtendedEstimators(seed uint64) []EstimatorSpec {
	plain := dataset.FeatureOptions{OneHotMACScale: 1}
	extra := []EstimatorSpec{
		{
			Name:     "per-MAC IDW p=2",
			Features: plain,
			Build:    perMAC(func() (ml.Estimator, error) { return &rem.IDW{Power: 2, Smoothing: 0.05}, nil }),
		},
		{
			Name:     "per-MAC ordinary kriging",
			Features: plain,
			Build:    perMAC(func() (ml.Estimator, error) { return &rem.Kriging{Nugget: -1}, nil }),
		},
	}
	return append(PaperEstimators(seed), extra...)
}

// Config tunes a pipeline run.
type Config struct {
	// Seed drives the mission, splits and weight initialisation.
	Seed uint64
	// Mission selects mission options; zero value means paper defaults.
	Mission mission.Options
	// TrainFraction is the train share of the 75/25 split.
	TrainFraction float64
	// MinSamplesPerMAC is the §III-B retention threshold.
	MinSamplesPerMAC int
	// Estimators is the suite to compare; nil means PaperEstimators.
	Estimators []EstimatorSpec
	// REMResolution is the map grid (cells per axis); zero disables REM
	// construction.
	REMResolution [3]int
	// Workers bounds the pipeline's concurrency — estimator training,
	// evaluation and REM rasterisation all share the setting. ≤ 0 means
	// GOMAXPROCS. Every worker count produces byte-identical results.
	Workers int
}

// DefaultConfig reproduces the paper's §III-B evaluation.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:             seed,
		Mission:          mission.DefaultOptions(seed),
		TrainFraction:    0.75,
		MinSamplesPerMAC: dataset.MinSamplesPerMAC,
		REMResolution:    [3]int{12, 10, 6},
	}
}

// Score is one estimator's Figure 8 result.
type Score struct {
	// Name is the estimator label.
	Name string
	// RMSE is the test-set root-mean-square error in dB.
	RMSE float64
	// MAE is the test-set mean absolute error in dB.
	MAE float64
}

// Result is the full pipeline output.
type Result struct {
	// Data is the raw mission dataset.
	Data *dataset.Dataset
	// Report is the mission flight report.
	Report *mission.Report
	// Pre is the preprocessed dataset.
	Pre *dataset.Preprocessed
	// Scores are the estimator comparisons, in suite order.
	Scores []Score
	// Best indexes the lowest-RMSE estimator in Scores.
	Best int
	// REM is the map built from the best estimator (nil if disabled).
	REM *rem.Map
}

// BestScore returns the winning estimator's score.
func (r *Result) BestScore() Score { return r.Scores[r.Best] }

// Run executes the paper pipeline: fly the mission, preprocess, train and
// compare the estimator suite, and build the REM from the winner.
func Run(cfg Config) (*Result, error) {
	if cfg.TrainFraction <= 0 || cfg.TrainFraction >= 1 {
		return nil, fmt.Errorf("core: train fraction %g outside (0, 1)", cfg.TrainFraction)
	}
	if cfg.MinSamplesPerMAC < 1 {
		return nil, errors.New("core: MinSamplesPerMAC must be ≥1")
	}
	ctrl, err := mission.NewPaperController(cfg.Mission)
	if err != nil {
		return nil, err
	}
	data, report, err := ctrl.Run()
	if err != nil {
		return nil, err
	}
	return RunWithDataset(cfg, data, report)
}

// RunWithDataset executes the ML half of the pipeline on an existing
// dataset — useful for re-analysing stored CSV missions.
func RunWithDataset(cfg Config, data *dataset.Dataset, report *mission.Report) (*Result, error) {
	if data == nil || data.Len() == 0 {
		return nil, errors.New("core: empty dataset")
	}
	pre, err := dataset.Preprocess(data, cfg.MinSamplesPerMAC)
	if err != nil {
		return nil, err
	}
	rng := simrand.New(cfg.Seed).Derive("pipeline")
	train, test, err := pre.Split(cfg.TrainFraction, rng.Derive("split"))
	if err != nil {
		return nil, err
	}

	specs := cfg.Estimators
	if specs == nil {
		specs = PaperEstimators(cfg.Seed)
	}
	res := &Result{Data: data, Report: report, Pre: pre}

	// Design matrices are shared read-only across workers; materialise
	// each distinct encoding once instead of per estimator.
	type split struct {
		trX, teX [][]float64
		trY, teY []float64
	}
	splits := map[dataset.FeatureOptions]*split{}
	for _, spec := range specs {
		if _, ok := splits[spec.Features]; ok {
			continue
		}
		s := &split{}
		s.trX, s.trY = train.DesignMatrix(spec.Features)
		s.teX, s.teY = test.DesignMatrix(spec.Features)
		splits[spec.Features] = s
	}

	// Each estimator trains and scores independently on the pool; scores
	// land in suite order, so the winner selection below is identical to
	// the sequential loop.
	scores, err := parallel.Map(len(specs), cfg.Workers, func(i int) (Score, error) {
		spec := specs[i]
		est, err := spec.Build()
		if err != nil {
			return Score{}, fmt.Errorf("core: building %s: %w", spec.Name, err)
		}
		s := splits[spec.Features]
		if err := est.Fit(s.trX, s.trY); err != nil {
			return Score{}, fmt.Errorf("core: fitting %s: %w", spec.Name, err)
		}
		pred, err := ml.PredictAll(est, s.teX)
		if err != nil {
			return Score{}, fmt.Errorf("core: evaluating %s: %w", spec.Name, err)
		}
		rmse, err := ml.RMSE(pred, s.teY)
		if err != nil {
			return Score{}, err
		}
		mae, err := ml.MAE(pred, s.teY)
		if err != nil {
			return Score{}, err
		}
		return Score{Name: spec.Name, RMSE: rmse, MAE: mae}, nil
	})
	if err != nil {
		return nil, err
	}
	res.Scores = scores
	var bestSpec EstimatorSpec
	for i, s := range scores {
		if i == 0 || s.RMSE < scores[res.Best].RMSE {
			res.Best = i
			bestSpec = specs[i]
		}
	}

	if cfg.REMResolution[0] > 0 {
		m, err := buildREM(cfg, pre, bestSpec)
		if err != nil {
			return nil, err
		}
		res.REM = m
	}
	return res, nil
}

// buildREM refits the winning estimator on the full dataset and rasterises
// it over the scan volume on the worker pool, feeding each worker's run of
// cells through the estimator's batch path.
func buildREM(cfg Config, pre *dataset.Preprocessed, spec EstimatorSpec) (*rem.Map, error) {
	est, err := spec.Build()
	if err != nil {
		return nil, err
	}
	allX, allY := pre.DesignMatrix(spec.Features)
	if err := est.Fit(allX, allY); err != nil {
		return nil, fmt.Errorf("core: refitting %s for REM: %w", spec.Name, err)
	}
	predict := BatchPredictorFor(est, pre.FeatureDim(spec.Features), spec.Features.OneHotMACScale)
	vol := geom.PaperScanVolume()
	return rem.BuildMapBatch(vol, cfg.REMResolution[0], cfg.REMResolution[1], cfg.REMResolution[2],
		pre.MACs, predict, rem.BuildOptions{Workers: cfg.Workers})
}

// BatchPredictorFor adapts a fitted estimator to the REM's batched cell
// contract under this pipeline's feature encoding (designRows) —
// rasterisation callers (the pipeline, the streaming loop, examples,
// benchmarks) share it rather than re-encoding by hand. Estimators with
// a batch path (kNN, NN) answer the whole run in one PredictBatch call.
// The per-MAC router (ml.PerKey), under an encoding that carries the
// one-hot block, answers the run's bare xyz positions instead, so no
// one-hot rows are built; every other estimator or encoding takes the
// row path.
func BatchPredictorFor(est ml.Estimator, dim int, scale float64) rem.BatchPredictFunc {
	if pk, ok := keyedPath(est, scale); ok {
		return func(centers []geom.Vec3, keyIdx int) ([]float64, error) {
			return pk.PredictKeyed(designRows(centers, keyIdx, ml.KeyOffset, 0), keyIdx)
		}
	}
	return func(centers []geom.Vec3, keyIdx int) ([]float64, error) {
		return ml.PredictAll(est, designRows(centers, keyIdx, dim, scale))
	}
}

// keyedPath reports whether est can skip the one-hot rows: it must be
// the per-MAC router (the one estimator with a keyed batch path), and
// the encoding must carry the one-hot block (scale != 0), which
// designRows puts at ml.KeyOffset, the column the router reads.
func keyedPath(est ml.Estimator, scale float64) (*ml.PerKey, bool) {
	pk, ok := est.(*ml.PerKey)
	return pk, ok && scale != 0
}

// designRows encodes positions of key keyIdx as this pipeline's feature
// rows — dim wide, the position at columns 0..2 and the one-hot MAC
// block (scaled by scale; 0 omits it) at ml.KeyOffset. It is the single
// owner of that layout: rasterisation queries (BatchPredictorFor) and
// ingested observations (RunIngest) both encode through it. The rows
// share one flat backing array instead of one allocation each, capped
// so no row can grow into its neighbour.
func designRows(pts []geom.Vec3, keyIdx, dim int, scale float64) [][]float64 {
	flat := make([]float64, len(pts)*dim)
	rows := make([][]float64, len(pts))
	for i, p := range pts {
		r := flat[i*dim : (i+1)*dim : (i+1)*dim]
		r[0], r[1], r[2] = p.X, p.Y, p.Z
		if scale != 0 {
			r[ml.KeyOffset+keyIdx] = scale
		}
		rows[i] = r
	}
	return rows
}
