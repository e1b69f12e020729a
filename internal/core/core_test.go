package core

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/mission"
)

// sharedResult caches one full pipeline run; the Figure 8 tests all consume
// it.
var sharedResult *Result

func runPipeline(t *testing.T) *Result {
	t.Helper()
	if sharedResult != nil {
		return sharedResult
	}
	res, err := Run(DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	sharedResult = res
	return res
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.TrainFraction = 0
	if _, err := Run(cfg); err == nil {
		t.Error("train fraction 0 accepted")
	}
	cfg = DefaultConfig(1)
	cfg.TrainFraction = 1
	if _, err := Run(cfg); err == nil {
		t.Error("train fraction 1 accepted")
	}
	cfg = DefaultConfig(1)
	cfg.MinSamplesPerMAC = 0
	if _, err := Run(cfg); err == nil {
		t.Error("zero MAC threshold accepted")
	}
	if _, err := RunWithDataset(DefaultConfig(1), nil, nil); err == nil {
		t.Error("nil dataset accepted")
	}
	if _, err := RunWithDataset(DefaultConfig(1), &dataset.Dataset{}, nil); err == nil {
		t.Error("empty dataset accepted")
	}
}

func TestPipelinePreprocessingMatchesPaperScale(t *testing.T) {
	res := runPipeline(t)
	// Paper: 2696 collected, 2565 retained, 131 dropped.
	retained := len(res.Pre.Rows)
	if retained < 2000 || retained > 3200 {
		t.Errorf("retained rows = %d, want ≈2565", retained)
	}
	if res.Pre.Dropped < 30 || res.Pre.Dropped > 350 {
		t.Errorf("dropped rows = %d, want ≈131", res.Pre.Dropped)
	}
	if res.Pre.Dropped+retained != res.Data.Len() {
		t.Error("dropped + retained ≠ total")
	}
}

// TestDesignRowsMatchDesignMatrix pins the two design-row encoders to one
// layout: bootstrap and stream windows encode through
// dataset.DesignMatrix, live batches and rasterisation through
// designRows. For every encoding scale the pipeline uses (0 omits the
// one-hot block), designRows of each preprocessed row's position and MAC
// index must equal that row of DesignMatrix bit for bit, at width
// FeatureDim.
func TestDesignRowsMatchDesignMatrix(t *testing.T) {
	pre := runPipeline(t).Pre
	for _, scale := range []float64{0, 1, 3} {
		opt := dataset.FeatureOptions{OneHotMACScale: scale}
		dim := pre.FeatureDim(opt)
		want, _ := pre.DesignMatrix(opt)
		for i, r := range pre.Rows {
			pos := []geom.Vec3{{X: r.Pos[0], Y: r.Pos[1], Z: r.Pos[2]}}
			got := designRows(pos, r.MACIndex, dim, scale)[0]
			if len(got) != dim || len(want[i]) != dim {
				t.Fatalf("scale %g row %d: widths %d and %d, want FeatureDim %d", scale, i, len(got), len(want[i]), dim)
			}
			for j := range got {
				if math.Float64bits(got[j]) != math.Float64bits(want[i][j]) {
					t.Fatalf("scale %g row %d column %d: designRows %v ≠ DesignMatrix %v", scale, i, j, got[j], want[i][j])
				}
			}
		}
	}
}

func TestFigure8ScoresMatchPaperShape(t *testing.T) {
	res := runPipeline(t)
	if len(res.Scores) != 5 {
		t.Fatalf("scores = %d, want 5 estimators", len(res.Scores))
	}
	byName := map[string]Score{}
	for _, s := range res.Scores {
		byName[s.Name] = s
		// All RMSEs live in the paper's 4–5.5 dB band.
		if s.RMSE < 3.2 || s.RMSE > 5.8 {
			t.Errorf("%s RMSE = %.3f dB outside the plausible band", s.Name, s.RMSE)
		}
		if s.MAE <= 0 || s.MAE >= s.RMSE {
			t.Errorf("%s MAE = %.3f inconsistent with RMSE %.3f", s.Name, s.MAE, s.RMSE)
		}
	}
	baseline := byName["baseline mean-per-MAC"]
	// Every kNN variant must beat the baseline (Figure 8).
	for _, name := range []string{"kNN k=3 distance-weighted", "kNN one-hot×3 k=16", "per-MAC kNN"} {
		if byName[name].RMSE >= baseline.RMSE {
			t.Errorf("%s RMSE %.3f not below baseline %.3f", name, byName[name].RMSE, baseline.RMSE)
		}
	}
	// The NN sits between the best kNN and the baseline (Figure 8); the
	// paper itself calls the regressors "comparable", so allow a small
	// tolerance against the baseline.
	nnScore := byName["NN 16-node sigmoid Adam"]
	if nnScore.RMSE >= baseline.RMSE*1.03 {
		t.Errorf("NN RMSE %.3f not comparable to baseline %.3f", nnScore.RMSE, baseline.RMSE)
	}
	best := res.BestScore()
	if nnScore.RMSE <= best.RMSE {
		t.Errorf("NN RMSE %.3f unexpectedly beats the best kNN %.3f", nnScore.RMSE, best.RMSE)
	}
	if res.BestScore().Name == "NN 16-node sigmoid Adam" || res.BestScore().Name == "baseline mean-per-MAC" {
		t.Errorf("best estimator is %q; the paper's winner is a kNN variant", res.BestScore().Name)
	}
}

func TestBestIndexConsistent(t *testing.T) {
	res := runPipeline(t)
	for _, s := range res.Scores {
		if s.RMSE < res.BestScore().RMSE {
			t.Errorf("Best does not point at the minimum: %s %.3f < %.3f", s.Name, s.RMSE, res.BestScore().RMSE)
		}
	}
}

func TestREMIsBuiltAndQueryable(t *testing.T) {
	res := runPipeline(t)
	if res.REM == nil {
		t.Fatal("REM not built")
	}
	if len(res.REM.Keys()) != len(res.Pre.MACs) {
		t.Errorf("REM keys = %d, want %d", len(res.REM.Keys()), len(res.Pre.MACs))
	}
	// Query the map at the volume centre for every MAC: predictions must be
	// plausible RSS values.
	centre := geom.PaperScanVolume().Center()
	for _, key := range res.REM.Keys() {
		v, err := res.REM.At(key, centre)
		if err != nil {
			t.Fatal(err)
		}
		if v > -15 || v < -110 {
			t.Errorf("REM prediction for %s = %.1f dBm implausible", key, v)
		}
	}
	// Coverage analysis must run.
	frac := res.REM.CoverageFraction(-85)
	if frac <= 0 || frac > 1 {
		t.Errorf("coverage fraction = %v", frac)
	}
}

func TestREMDisabled(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.REMResolution = [3]int{}
	cfg.Estimators = PaperEstimators(2)[:1] // baseline only: fast
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.REM != nil {
		t.Error("REM built despite zero resolution")
	}
}

func TestRunWithStoredDataset(t *testing.T) {
	// The ML half must be re-runnable on a stored dataset.
	res := runPipeline(t)
	cfg := DefaultConfig(1)
	cfg.Estimators = PaperEstimators(1)[:2]
	cfg.REMResolution = [3]int{}
	again, err := RunWithDataset(cfg, res.Data, res.Report)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Scores) != 2 {
		t.Fatalf("scores = %d", len(again.Scores))
	}
	// Same data, same seed, same estimator → identical RMSE.
	if again.Scores[0].RMSE != res.Scores[0].RMSE {
		t.Errorf("re-run baseline RMSE %.4f differs from original %.4f",
			again.Scores[0].RMSE, res.Scores[0].RMSE)
	}
}

func TestExtendedEstimatorsRun(t *testing.T) {
	res := runPipeline(t)
	cfg := DefaultConfig(1)
	cfg.Estimators = ExtendedEstimators(1)[5:] // just IDW + kriging
	cfg.REMResolution = [3]int{}
	ext, err := RunWithDataset(cfg, res.Data, res.Report)
	if err != nil {
		t.Fatal(err)
	}
	if len(ext.Scores) != 2 {
		t.Fatalf("extended scores = %d", len(ext.Scores))
	}
	for _, s := range ext.Scores {
		if s.RMSE < 3.0 || s.RMSE > 6.5 {
			t.Errorf("%s RMSE = %.3f outside plausible band", s.Name, s.RMSE)
		}
	}
}

func TestPipelineDeterminism(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.Estimators = PaperEstimators(3)[:2]
	cfg.REMResolution = [3]int{}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Scores {
		if a.Scores[i] != b.Scores[i] {
			t.Errorf("score %d differs across identical runs: %+v vs %+v", i, a.Scores[i], b.Scores[i])
		}
	}
}

func TestMissionAblationThroughPipeline(t *testing.T) {
	// The stock-firmware ablation must produce a much smaller dataset but
	// still flow through the pipeline if any MACs survive the threshold.
	opts := mission.DefaultOptions(1)
	opts.StockFirmware = true
	ctrl, err := mission.NewPaperController(opts)
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := ctrl.Run()
	if err != nil {
		t.Fatal(err)
	}
	full := runPipeline(t)
	if data.Len() >= full.Data.Len()/4 {
		t.Errorf("stock firmware dataset %d not ≪ full %d", data.Len(), full.Data.Len())
	}
}

func TestPipelineWorkerCountInvariance(t *testing.T) {
	// The concurrency contract end to end: the ML half of the pipeline —
	// estimator comparison and REM rasterisation — must be byte-identical
	// for workers=1 and workers=4.
	full := runPipeline(t)
	run := func(workers int) *Result {
		cfg := DefaultConfig(1)
		cfg.Workers = workers
		cfg.Estimators = PaperEstimators(1)[:3] // baseline + both kNNs: fast
		cfg.REMResolution = [3]int{6, 5, 4}
		res, err := RunWithDataset(cfg, full.Data, full.Report)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq, par := run(1), run(4)
	for i := range seq.Scores {
		if seq.Scores[i] != par.Scores[i] {
			t.Errorf("score %d: workers=4 %+v ≠ workers=1 %+v", i, par.Scores[i], seq.Scores[i])
		}
	}
	if seq.Best != par.Best {
		t.Errorf("winner differs: workers=4 %d ≠ workers=1 %d", par.Best, seq.Best)
	}
	var seqCSV, parCSV bytes.Buffer
	if err := seq.REM.WriteCSV(&seqCSV); err != nil {
		t.Fatal(err)
	}
	if err := par.REM.WriteCSV(&parCSV); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqCSV.Bytes(), parCSV.Bytes()) {
		t.Error("REM maps differ between workers=1 and workers=4")
	}
}
