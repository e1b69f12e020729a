package ekf

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/mat"
	"repro/internal/simrand"
	"repro/internal/uwb"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(geom.V(0, 0, 0), Config{}); err == nil {
		t.Error("zero config accepted")
	}
	bad := DefaultConfig()
	bad.AccelNoise = 0
	if _, err := New(geom.V(0, 0, 0), bad); err == nil {
		t.Error("zero accel noise accepted")
	}
	bad = DefaultConfig()
	bad.InitPosSigmaM = -1
	if _, err := New(geom.V(0, 0, 0), bad); err == nil {
		t.Error("negative init sigma accepted")
	}
}

func TestInitialState(t *testing.T) {
	f, err := New(geom.V(1, 2, 3), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if f.Position() != geom.V(1, 2, 3) {
		t.Errorf("Position = %v", f.Position())
	}
	if f.Velocity() != geom.V(0, 0, 0) {
		t.Errorf("Velocity = %v", f.Velocity())
	}
	sd := f.PositionStdDev()
	if sd.X != 1 || sd.Y != 1 || sd.Z != 1 {
		t.Errorf("initial position stddev = %v", sd)
	}
}

func TestPredictKinematics(t *testing.T) {
	f, _ := New(geom.V(0, 0, 0), DefaultConfig())
	// Constant 1 m/s² along x for 2 s ⇒ p = 2 m, v = 2 m/s.
	for i := 0; i < 20; i++ {
		checkedPredict(t, f, geom.V(1, 0, 0), 0.1)
	}
	p, v := f.Position(), f.Velocity()
	if diff := p.Dist(geom.V(2, 0, 0)); diff > 1e-9 {
		t.Errorf("position = %v, want (2,0,0)", p)
	}
	if diff := v.Dist(geom.V(2, 0, 0)); diff > 1e-9 {
		t.Errorf("velocity = %v, want (2,0,0)", v)
	}
}

func TestPredictRejectsBadDt(t *testing.T) {
	f, _ := New(geom.V(0, 0, 0), DefaultConfig())
	if err := f.Predict(geom.V(0, 0, 0), 0); err == nil {
		t.Error("dt=0 accepted")
	}
	if err := f.Predict(geom.V(0, 0, 0), -0.1); err == nil {
		t.Error("negative dt accepted")
	}
}

func TestPredictGrowsUncertainty(t *testing.T) {
	f, _ := New(geom.V(0, 0, 0), DefaultConfig())
	before := f.PositionStdDev().X
	for i := 0; i < 10; i++ {
		checkedPredict(t, f, geom.V(0, 0, 0), 0.1)
	}
	// A range update couples the axes; the propagation must still match
	// the reference on the now dense covariance.
	if err := f.UpdateRange(geom.V(3, 2, 2), 2.5, 0.1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		checkedPredict(t, f, geom.V(0.3, -0.2, 0.1), 0.05)
	}
	after := f.PositionStdDev().X
	if after <= before {
		t.Errorf("prediction should grow covariance: %v → %v", before, after)
	}
}

// checkedPredict runs f.Predict and checks the new covariance, bit for
// bit, against the reference F·P·Fᵀ + Q built from mat.Matrix products
// and symmetrised.
func checkedPredict(t *testing.T, f *Filter, accel geom.Vec3, dt float64) {
	t.Helper()
	p := mat.New(stateDim, stateDim)
	for i := 0; i < stateDim; i++ {
		for j := 0; j < stateDim; j++ {
			p.Set(i, j, f.p[i*stateDim+j])
		}
	}
	fm := mat.Identity(stateDim)
	qm := mat.New(stateDim, stateDim)
	q := f.cfg.AccelNoise * f.cfg.AccelNoise
	for i := 0; i < 3; i++ {
		fm.Set(i, i+3, dt)
		qm.Set(i, i, q*dt*dt*dt/3)
		qm.Set(i, i+3, q*dt*dt/2)
		qm.Set(i+3, i, q*dt*dt/2)
		qm.Set(i+3, i+3, q*dt)
	}
	want := fm.Mul(p).Mul(fm.T()).Plus(qm)
	want.Symmetrize()
	if err := f.Predict(accel, dt); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < stateDim; i++ {
		for j := 0; j < stateDim; j++ {
			if got := f.p[i*stateDim+j]; math.Float64bits(got) != math.Float64bits(want.At(i, j)) {
				t.Fatalf("P[%d][%d] = %v, reference F·P·Fᵀ+Q has %v", i, j, got, want.At(i, j))
			}
		}
	}
}

func TestPredictAllocationFree(t *testing.T) {
	f, _ := New(geom.V(1, 1, 1), DefaultConfig())
	if n := testing.AllocsPerRun(100, func() { _ = f.Predict(geom.V(0.1, 0, -0.1), 0.01) }); n != 0 {
		t.Errorf("Predict allocates %v times per tick, want 0", n)
	}
}

func TestUpdateRangeShrinksUncertainty(t *testing.T) {
	f, _ := New(geom.V(1, 1, 1), DefaultConfig())
	before := f.PositionStdDev()
	anchors := geom.PaperScanVolume().Corners()
	truth := geom.V(1.5, 1.2, 0.9)
	for _, a := range anchors {
		if err := f.UpdateRange(a, truth.Dist(a), 0.1); err != nil {
			t.Fatal(err)
		}
	}
	after := f.PositionStdDev()
	if after.X >= before.X || after.Y >= before.Y || after.Z >= before.Z {
		t.Errorf("updates should shrink covariance: %v → %v", before, after)
	}
}

func TestRangeOnlyConvergence(t *testing.T) {
	// Noiseless ranges from 8 anchors must pull the estimate onto the
	// true position.
	f, _ := New(geom.V(0.2, 0.3, 0.2), DefaultConfig())
	anchors := geom.PaperScanVolume().Corners()
	truth := geom.V(2.5, 1.1, 1.4)
	for iter := 0; iter < 50; iter++ {
		_ = f.Predict(geom.V(0, 0, 0), 0.1)
		for _, a := range anchors {
			if err := f.UpdateRange(a, truth.Dist(a), 0.05); err != nil {
				t.Fatal(err)
			}
		}
	}
	if e := f.Position().Dist(truth); e > 0.02 {
		t.Errorf("noiseless convergence error = %v m", e)
	}
}

func TestTDoAOnlyConvergence(t *testing.T) {
	f, _ := New(geom.V(1.0, 1.0, 0.5), DefaultConfig())
	anchors := geom.PaperScanVolume().Corners()
	truth := geom.V(2.2, 2.4, 1.2)
	ref := anchors[0]
	for iter := 0; iter < 80; iter++ {
		_ = f.Predict(geom.V(0, 0, 0), 0.1)
		for _, a := range anchors[1:] {
			d := truth.Dist(a) - truth.Dist(ref)
			if err := f.UpdateTDoA(a, ref, d, 0.05); err != nil {
				t.Fatal(err)
			}
		}
	}
	if e := f.Position().Dist(truth); e > 0.05 {
		t.Errorf("TDoA convergence error = %v m", e)
	}
}

func TestUpdateValidation(t *testing.T) {
	f, _ := New(geom.V(1, 1, 1), DefaultConfig())
	if err := f.UpdateRange(geom.V(0, 0, 0), 1, 0); err == nil {
		t.Error("zero sigma accepted")
	}
	if err := f.UpdateRange(geom.V(1, 1, 1), 0, 0.1); err == nil {
		t.Error("anchor at tag position accepted")
	}
	if err := f.UpdateTDoA(geom.V(0, 0, 0), geom.V(2, 2, 2), 0, 0); err == nil {
		t.Error("zero TDoA sigma accepted")
	}
	if err := f.UpdateTDoA(geom.V(1, 1, 1), geom.V(2, 2, 2), 0, 0.1); err == nil {
		t.Error("TDoA anchor at tag position accepted")
	}
}

func hoverError(t *testing.T, nAnchors int, mode uwb.Mode, seed uint64) float64 {
	t.Helper()
	vol := geom.PaperScanVolume()
	corners := vol.Corners()
	anchors := make([]uwb.Anchor, 0, nAnchors)
	for i := 0; i < nAnchors; i++ {
		anchors = append(anchors, uwb.Anchor{ID: i, Pos: corners[i%len(corners)].Add(geom.V(0, 0, float64(i/len(corners))*0.1))})
	}
	cfg := uwb.DefaultConfig(mode)
	cfg.Seed = seed
	c, err := uwb.NewConstellation(anchors[:nAnchors], cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.SelfCalibrate()
	res, err := RunHover(c, DefaultHoverTrial(geom.V(1.87, 1.60, 1.0)), simrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return res.MeanErrorM
}

func TestHoverAccuracyMatchesPaperScale(t *testing.T) {
	// Paper (§II-B, citing Chekuri & Won): ≈9 cm hovering accuracy with 6
	// anchors. Average a few seeds and require the right decimetre scale.
	var sum float64
	const seeds = 5
	for s := uint64(0); s < seeds; s++ {
		sum += hoverError(t, 6, uwb.TWR, 100+s)
	}
	mean := sum / seeds
	if mean < 0.02 || mean > 0.20 {
		t.Errorf("6-anchor hover accuracy = %.3f m, want ≈0.09 m (decimetre-level)", mean)
	}
}

func TestMoreAnchorsImproveAccuracy(t *testing.T) {
	var e4, e8 float64
	const seeds = 6
	for s := uint64(0); s < seeds; s++ {
		e4 += hoverError(t, 4, uwb.TWR, 200+s)
		e8 += hoverError(t, 8, uwb.TWR, 200+s)
	}
	if e8 >= e4 {
		t.Errorf("8-anchor error %v not below 4-anchor error %v", e8/seeds, e4/seeds)
	}
}

func TestHoverTrialValidation(t *testing.T) {
	c, _ := uwb.CornerConstellation(geom.PaperScanVolume(), uwb.DefaultConfig(uwb.TWR))
	c.SelfCalibrate()
	trial := DefaultHoverTrial(geom.V(1, 1, 1))
	trial.Duration = 0
	if _, err := RunHover(c, trial, simrand.New(1)); err == nil {
		t.Error("zero duration accepted")
	}
	trial = DefaultHoverTrial(geom.V(1, 1, 1))
	trial.WarmupFraction = 1
	if _, err := RunHover(c, trial, simrand.New(1)); err == nil {
		t.Error("warm-up fraction 1 accepted")
	}
}

func TestRunHoverRequiresCalibration(t *testing.T) {
	c, _ := uwb.CornerConstellation(geom.PaperScanVolume(), uwb.DefaultConfig(uwb.TWR))
	if _, err := RunHover(c, DefaultHoverTrial(geom.V(1, 1, 1)), simrand.New(1)); err == nil {
		t.Error("uncalibrated constellation accepted")
	}
}

func TestHoverResultFieldsConsistent(t *testing.T) {
	c, _ := uwb.CornerConstellation(geom.PaperScanVolume(), uwb.DefaultConfig(uwb.TDoA))
	c.SelfCalibrate()
	res, err := RunHover(c, DefaultHoverTrial(geom.V(1.8, 1.6, 1.0)), simrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples == 0 {
		t.Fatal("no samples accumulated")
	}
	if res.RMSErrorM < res.MeanErrorM {
		t.Errorf("RMS %v below mean %v", res.RMSErrorM, res.MeanErrorM)
	}
	if res.MaxErrorM < res.RMSErrorM {
		t.Errorf("max %v below RMS %v", res.MaxErrorM, res.RMSErrorM)
	}
}
