package rem

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/ml"
	"repro/internal/simrand"
)

func TestIDWExactAtTrainingPoints(t *testing.T) {
	w := &IDW{Power: 2}
	x := [][]float64{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}}
	y := []float64{-50, -60, -70}
	if err := w.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	for i, row := range x {
		got, err := w.Predict(row)
		if err != nil || got != y[i] {
			t.Errorf("IDW at training point %d = %v, want %v", i, got, y[i])
		}
	}
}

func TestIDWInterpolatesBetween(t *testing.T) {
	w := &IDW{Power: 2}
	_ = w.Fit([][]float64{{0}, {2}}, []float64{-40, -80})
	got, err := w.Predict([]float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got+60) > 1e-9 {
		t.Errorf("midpoint = %v, want −60", got)
	}
	// Closer to the −40 point → higher.
	near, _ := w.Predict([]float64{0.2})
	if near <= got {
		t.Errorf("IDW not distance-sensitive: %v at 0.2 vs %v at 1.0", near, got)
	}
}

func TestIDWBounded(t *testing.T) {
	// IDW predictions never exceed the training extrema.
	rng := simrand.New(1)
	w := &IDW{Power: 2, Smoothing: 0.01}
	var x [][]float64
	var y []float64
	for i := 0; i < 50; i++ {
		x = append(x, []float64{rng.Range(0, 4), rng.Range(0, 3), rng.Range(0, 2)})
		y = append(y, rng.Range(-90, -50))
	}
	_ = w.Fit(x, y)
	for i := 0; i < 100; i++ {
		q := []float64{rng.Range(-1, 5), rng.Range(-1, 4), rng.Range(-1, 3)}
		got, err := w.Predict(q)
		if err != nil {
			t.Fatal(err)
		}
		if got < -90-1e-9 || got > -50+1e-9 {
			t.Fatalf("IDW prediction %v outside training range", got)
		}
	}
}

func TestIDWValidation(t *testing.T) {
	w := &IDW{Power: 0}
	if err := w.Fit([][]float64{{1}}, []float64{1}); err == nil {
		t.Error("zero power accepted")
	}
	w = &IDW{Power: 2, Smoothing: -1}
	if err := w.Fit([][]float64{{1}}, []float64{1}); err == nil {
		t.Error("negative smoothing accepted")
	}
	w = &IDW{Power: 2}
	if _, err := w.Predict([]float64{1}); !errors.Is(err, ml.ErrNotFitted) {
		t.Errorf("unfitted error = %v", err)
	}
	_ = w.Fit([][]float64{{1, 2}}, []float64{1})
	if _, err := w.Predict([]float64{1}); err == nil {
		t.Error("dim mismatch accepted")
	}
}

func TestKrigingRecoversSmoothField(t *testing.T) {
	// Samples of a smooth field: kriging should interpolate well and beat
	// the field's standard deviation.
	rng := simrand.New(3)
	f := func(x, y float64) float64 { return -60 - 5*math.Sin(x) - 4*math.Cos(y) }
	var xs [][]float64
	var ys []float64
	for i := 0; i < 120; i++ {
		x, y := rng.Range(0, 4), rng.Range(0, 3)
		xs = append(xs, []float64{x, y, 1})
		ys = append(ys, f(x, y)+rng.Gauss(0, 0.3))
	}
	k := &Kriging{Nugget: -1}
	if err := k.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	var sse float64
	const nTest = 60
	for i := 0; i < nTest; i++ {
		x, y := rng.Range(0.5, 3.5), rng.Range(0.5, 2.5)
		got, err := k.Predict([]float64{x, y, 1})
		if err != nil {
			t.Fatal(err)
		}
		sse += (got - f(x, y)) * (got - f(x, y))
	}
	rmse := math.Sqrt(sse / nTest)
	if rmse > 1.5 {
		t.Errorf("kriging RMSE on smooth field = %v, want < 1.5", rmse)
	}
	nug, sill, rang := k.VariogramParams()
	if sill <= 0 || rang <= 0 || nug < 0 {
		t.Errorf("variogram params: nugget=%v sill=%v range=%v", nug, sill, rang)
	}
}

func TestKrigingValidation(t *testing.T) {
	k := &Kriging{}
	if _, err := k.Predict([]float64{1}); !errors.Is(err, ml.ErrNotFitted) {
		t.Errorf("unfitted error = %v", err)
	}
	if err := k.Fit([][]float64{{1}, {2}}, []float64{1, 2}); err == nil {
		t.Error("2-point kriging accepted")
	}
	coincident := [][]float64{{1, 1, 1}, {1, 1, 1}, {1, 1, 1}}
	if err := k.Fit(coincident, []float64{1, 2, 3}); err == nil {
		t.Error("coincident points accepted")
	}
}

func TestKrigingSubsamplesLargeSets(t *testing.T) {
	rng := simrand.New(7)
	k := &Kriging{Nugget: -1, MaxPoints: 50}
	var xs [][]float64
	var ys []float64
	for i := 0; i < 500; i++ {
		xs = append(xs, []float64{rng.Range(0, 4), rng.Range(0, 3), rng.Range(0, 2)})
		ys = append(ys, rng.Range(-90, -50))
	}
	if err := k.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	if got, err := k.Predict([]float64{2, 1.5, 1}); err != nil || math.IsNaN(got) {
		t.Errorf("subsampled kriging predict = %v, %v", got, err)
	}
}

func mapFixture(t *testing.T) *Map {
	t.Helper()
	vol := geom.MustCuboid(geom.V(0, 0, 0), 4, 3, 2)
	// Key 0: gradient along x. Key 1: constant weak.
	predict := func(p geom.Vec3, k int) (float64, error) {
		if k == 0 {
			return -40 - 10*p.X, nil
		}
		return -95, nil
	}
	m, err := BuildMapBatch(vol, 8, 6, 4, []string{"AA", "BB"}, pointwise(predict), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBuildMapValidation(t *testing.T) {
	vol := geom.MustCuboid(geom.V(0, 0, 0), 1, 1, 1)
	ok := pointwise(func(p geom.Vec3, k int) (float64, error) { return 0, nil })
	if _, err := BuildMapBatch(vol, 0, 1, 1, []string{"a"}, ok, BuildOptions{}); err == nil {
		t.Error("zero resolution accepted")
	}
	if _, err := BuildMapBatch(vol, 1, 1, 1, nil, ok, BuildOptions{}); err == nil {
		t.Error("no keys accepted")
	}
	if _, err := BuildMapBatch(vol, 1, 1, 1, []string{"a"}, nil, BuildOptions{}); err == nil {
		t.Error("nil predictor accepted")
	}
	bad := pointwise(func(p geom.Vec3, k int) (float64, error) { return 0, errors.New("boom") })
	if _, err := BuildMapBatch(vol, 1, 1, 1, []string{"a"}, bad, BuildOptions{}); err == nil {
		t.Error("predictor error swallowed")
	}
}

func TestMapAccessors(t *testing.T) {
	m := mapFixture(t)
	if nx, ny, nz := m.Resolution(); nx != 8 || ny != 6 || nz != 4 {
		t.Errorf("resolution = %d %d %d", nx, ny, nz)
	}
	if len(m.Keys()) != 2 {
		t.Errorf("keys = %v", m.Keys())
	}
	if m.KeyIndex("BB") != 1 || m.KeyIndex("zz") != -1 {
		t.Error("KeyIndex wrong")
	}
	if m.Volume().Size() != geom.V(4, 3, 2) {
		t.Error("volume wrong")
	}
}

func TestMapInterpolationFollowsGradient(t *testing.T) {
	m := mapFixture(t)
	at := func(x float64) float64 {
		v, err := m.At("AA", geom.V(x, 1.5, 1))
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	// The underlying field is −40 −10x; interpolation must track it.
	for _, x := range []float64{0.5, 1.0, 2.0, 3.5} {
		want := -40 - 10*x
		if got := at(x); math.Abs(got-want) > 0.8 {
			t.Errorf("At(x=%v) = %v, want ≈%v", x, got, want)
		}
	}
	// Monotone decreasing along x.
	prev := at(0.3)
	for x := 0.6; x < 4; x += 0.3 {
		cur := at(x)
		if cur >= prev {
			t.Errorf("interpolated field not decreasing at x=%v", x)
		}
		prev = cur
	}
}

func TestMapAtUnknownKey(t *testing.T) {
	m := mapFixture(t)
	if _, err := m.At("nope", geom.V(0, 0, 0)); err == nil {
		t.Error("unknown key accepted")
	}
}

func TestMapAtClampsOutside(t *testing.T) {
	m := mapFixture(t)
	v, err := m.At("AA", geom.V(-100, -100, -100))
	if err != nil || math.IsNaN(v) {
		t.Errorf("clamped query = %v, %v", v, err)
	}
}

func TestStrongestAndCoverage(t *testing.T) {
	m := mapFixture(t)
	key, v := m.Strongest(geom.V(0.5, 1.5, 1))
	if key != "AA" {
		t.Errorf("strongest = %q", key)
	}
	if v > -40 || v < -90 {
		t.Errorf("strongest value = %v", v)
	}
	if got := m.CoverageAt(geom.V(0.5, 1.5, 1)); got != v {
		t.Errorf("CoverageAt = %v, want %v", got, v)
	}
}

func TestDarkRegions(t *testing.T) {
	m := mapFixture(t)
	// Field AA ranges −42.5 (x=0.25) to −77.5 (x=3.75); threshold −70
	// leaves the high-x cells dark.
	dark := m.DarkRegions(-70)
	if len(dark) == 0 {
		t.Fatal("no dark cells found")
	}
	for _, c := range dark {
		if c.Center.X < 2.5 {
			t.Errorf("dark cell at low x: %v", c.Center)
		}
		if c.BestRSS >= -70 {
			t.Errorf("non-dark cell reported: %v", c.BestRSS)
		}
	}
	// Worst first.
	for i := 1; i < len(dark); i++ {
		if dark[i].BestRSS < dark[i-1].BestRSS {
			t.Error("dark cells not sorted worst-first")
		}
	}
	frac := m.CoverageFraction(-70)
	want := 1 - float64(len(dark))/float64(8*6*4)
	if math.Abs(frac-want) > 1e-12 {
		t.Errorf("coverage fraction = %v, want %v", frac, want)
	}
}

func TestDarkRegionsForSpecificKey(t *testing.T) {
	m := mapFixture(t)
	// Key BB is −95 everywhere: fully dark at −90.
	dark, err := m.DarkRegionsFor("BB", -90)
	if err != nil {
		t.Fatal(err)
	}
	if len(dark) != 8*6*4 {
		t.Errorf("BB dark cells = %d, want all %d", len(dark), 8*6*4)
	}
	frac, err := m.CoverageFractionFor("BB", -90)
	if err != nil || frac != 0 {
		t.Errorf("BB coverage = %v, %v", frac, err)
	}
	// Key AA is dark only at high x for −70.
	darkAA, err := m.DarkRegionsFor("AA", -70)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range darkAA {
		if c.Center.X < 2.5 {
			t.Errorf("AA dark cell at low x: %v", c.Center)
		}
	}
	fracAA, err := m.CoverageFractionFor("AA", -70)
	if err != nil || fracAA <= 0 || fracAA >= 1 {
		t.Errorf("AA coverage = %v, %v", fracAA, err)
	}
	if _, err := m.DarkRegionsFor("nope", -70); err == nil {
		t.Error("unknown key accepted")
	}
	if _, err := m.CoverageFractionFor("nope", -70); err == nil {
		t.Error("unknown key accepted in coverage")
	}
}

func TestMapWriteCSV(t *testing.T) {
	m := mapFixture(t)
	var buf bytes.Buffer
	if err := m.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	wantRows := 1 + 2*8*6*4
	if len(lines) != wantRows {
		t.Errorf("CSV rows = %d, want %d", len(lines), wantRows)
	}
	if !strings.HasPrefix(lines[0], "x,y,z,key,rss_dbm") {
		t.Errorf("header = %q", lines[0])
	}
}

func TestPerKeyEnsembleWithIDW(t *testing.T) {
	// The per-key router must route to per-key IDW interpolators.
	ens := &ml.PerKey{Sub: func() (ml.Estimator, error) { return &IDW{Power: 2}, nil }}
	x := [][]float64{
		{0, 0, 0, 1, 0}, {1, 0, 0, 1, 0},
		{0, 0, 0, 0, 1}, {1, 0, 0, 0, 1},
	}
	y := []float64{-50, -60, -80, -90}
	if err := ens.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	got, err := ens.Predict([]float64{0, 0, 0, 1, 0})
	if err != nil || got != -50 {
		t.Errorf("per-key key-0 = %v, %v", got, err)
	}
	got, _ = ens.Predict([]float64{0, 0, 0, 0, 1})
	if got != -80 {
		t.Errorf("per-key key-1 = %v", got)
	}
}

func TestSliceAt(t *testing.T) {
	m := mapFixture(t)
	s, err := m.SliceAt("AA", 1.0, 16, 12)
	if err != nil {
		t.Fatal(err)
	}
	if s.Nx != 16 || s.Ny != 12 || len(s.Values) != 16*12 {
		t.Fatalf("slice shape %dx%d/%d", s.Nx, s.Ny, len(s.Values))
	}
	if s.Min >= s.Max {
		t.Errorf("slice extremes %v..%v", s.Min, s.Max)
	}
	// The AA field decreases with x: first column > last column.
	first := s.Values[0]
	last := s.Values[s.Nx-1]
	if last >= first {
		t.Errorf("slice does not follow the field gradient: %v → %v", first, last)
	}
	if _, err := m.SliceAt("nope", 1.0, 4, 4); err == nil {
		t.Error("unknown key accepted")
	}
	if _, err := m.SliceAt("AA", 1.0, 0, 4); err == nil {
		t.Error("zero raster accepted")
	}
}

func TestSliceRender(t *testing.T) {
	m := mapFixture(t)
	s, err := m.SliceAt("AA", 1.0, 20, 8)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "REM slice for AA") {
		t.Errorf("render header missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Header + 8 rows + x-axis footer.
	if len(lines) != 10 {
		t.Errorf("render lines = %d, want 10", len(lines))
	}
	// Strong cells (left, low x) must use denser glyphs than weak cells.
	row := lines[1]
	bar := row[strings.Index(row, "|")+1 : strings.LastIndex(row, "|")]
	if len(bar) != 20 {
		t.Fatalf("bar width = %d", len(bar))
	}
	if bar[0] == bar[len(bar)-1] {
		t.Errorf("heatmap flat across the gradient: %q", bar)
	}
}
