package nn

import (
	"errors"
	"math"
	"testing"

	"repro/internal/ml"
	"repro/internal/simrand"
)

func TestConfigValidation(t *testing.T) {
	good := PaperConfig(1)
	if err := good.Validate(); err != nil {
		t.Fatalf("paper config invalid: %v", err)
	}
	c := good
	c.Hidden = []LayerSpec{{Units: 0, Activation: Sigmoid}}
	if err := c.Validate(); err == nil {
		t.Error("zero-unit layer accepted")
	}
	c = good
	c.LearningRate = 0
	if err := c.Validate(); err == nil {
		t.Error("zero learning rate accepted")
	}
	c = good
	c.Epochs = 0
	if err := c.Validate(); err == nil {
		t.Error("zero epochs accepted")
	}
	c = good
	c.Optimizer = 0
	if err := c.Validate(); err == nil {
		t.Error("invalid optimizer accepted")
	}
	c = good
	c.BatchSize = 0
	if err := c.Validate(); err == nil {
		t.Error("zero batch accepted")
	}
	c = good
	c.OutputActivation = Activation(99)
	if err := c.Validate(); err == nil {
		t.Error("invalid output activation accepted")
	}
}

func TestPaperConfigTopology(t *testing.T) {
	c := PaperConfig(1)
	if len(c.Hidden) != 1 || c.Hidden[0].Units != 16 || c.Hidden[0].Activation != Sigmoid {
		t.Errorf("paper topology = %+v, want one 16-node sigmoid layer", c.Hidden)
	}
	if c.Optimizer != Adam || c.OutputActivation != Linear || !c.NormalizeTargets {
		t.Error("paper config must use Adam, linear output and normalised targets")
	}
}

func TestActivations(t *testing.T) {
	if got := Sigmoid.apply(0); got != 0.5 {
		t.Errorf("sigmoid(0) = %v", got)
	}
	if got := ReLU.apply(-3); got != 0 {
		t.Errorf("relu(-3) = %v", got)
	}
	if got := ReLU.apply(3); got != 3 {
		t.Errorf("relu(3) = %v", got)
	}
	if got := Tanh.apply(0); got != 0 {
		t.Errorf("tanh(0) = %v", got)
	}
	if got := Linear.apply(1.5); got != 1.5 {
		t.Errorf("linear(1.5) = %v", got)
	}
	// Derivatives at the activation output.
	if got := Sigmoid.derivative(0.5); got != 0.25 {
		t.Errorf("sigmoid'(out=0.5) = %v", got)
	}
	if got := Linear.derivative(3); got != 1 {
		t.Errorf("linear' = %v", got)
	}
	if got := ReLU.derivative(0); got != 0 {
		t.Errorf("relu'(0) = %v", got)
	}
	if got := Tanh.derivative(0); got != 1 {
		t.Errorf("tanh'(out=0) = %v", got)
	}
}

func TestStringers(t *testing.T) {
	for _, a := range []Activation{Linear, Sigmoid, Tanh, ReLU} {
		if a.String() == "" {
			t.Errorf("activation %d has empty string", a)
		}
	}
	for _, o := range []Optimizer{SGD, Adam} {
		if o.String() == "" {
			t.Errorf("optimizer %d has empty string", o)
		}
	}
}

func TestUnfittedPredict(t *testing.T) {
	n, err := New(PaperConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Predict([]float64{1}); !errors.Is(err, ml.ErrNotFitted) {
		t.Errorf("unfitted error = %v", err)
	}
}

func TestLearnsLinearFunction(t *testing.T) {
	cfg := Config{
		Hidden:           []LayerSpec{{Units: 8, Activation: Tanh}},
		OutputActivation: Linear,
		Optimizer:        Adam,
		LearningRate:     0.01,
		Epochs:           300,
		BatchSize:        16,
		NormalizeTargets: true,
		Seed:             3,
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := simrand.New(5)
	var x [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		a, b := rng.Range(-1, 1), rng.Range(-1, 1)
		x = append(x, []float64{a, b})
		y = append(y, 3*a-2*b+1)
	}
	if err := n.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	var maxErr float64
	for i := 0; i < 50; i++ {
		a, b := rng.Range(-0.8, 0.8), rng.Range(-0.8, 0.8)
		pred, err := n.Predict([]float64{a, b})
		if err != nil {
			t.Fatal(err)
		}
		if e := math.Abs(pred - (3*a - 2*b + 1)); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 0.5 {
		t.Errorf("max error on linear function = %v", maxErr)
	}
}

func TestLearnsNonlinearFunction(t *testing.T) {
	cfg := PaperConfig(7)
	cfg.Epochs = 400
	n, _ := New(cfg)
	rng := simrand.New(9)
	var x [][]float64
	var y []float64
	for i := 0; i < 300; i++ {
		a := rng.Range(-2, 2)
		x = append(x, []float64{a})
		y = append(y, a*a) // parabola: impossible for a linear model
	}
	if err := n.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	var sse, sst, mean float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	for i, row := range x {
		pred, _ := n.Predict(row)
		sse += (pred - y[i]) * (pred - y[i])
		sst += (y[i] - mean) * (y[i] - mean)
	}
	r2 := 1 - sse/sst
	if r2 < 0.9 {
		t.Errorf("parabola fit R² = %v, want > 0.9 (the hidden layer must add value)", r2)
	}
}

func TestSGDAlsoTrains(t *testing.T) {
	cfg := Config{
		Hidden:           []LayerSpec{{Units: 6, Activation: Sigmoid}},
		OutputActivation: Linear,
		Optimizer:        SGD,
		LearningRate:     0.05,
		Epochs:           300,
		BatchSize:        8,
		NormalizeTargets: true,
		Seed:             11,
	}
	n, _ := New(cfg)
	var x [][]float64
	var y []float64
	for i := 0; i < 100; i++ {
		a := float64(i)/50 - 1
		x = append(x, []float64{a})
		y = append(y, 2*a)
	}
	if err := n.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	pred, err := n.Predict([]float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pred-1) > 0.4 {
		t.Errorf("SGD prediction at 0.5 = %v, want ≈1", pred)
	}
}

func TestDeterministicTraining(t *testing.T) {
	build := func() float64 {
		n, _ := New(PaperConfig(21))
		var x [][]float64
		var y []float64
		rng := simrand.New(2)
		for i := 0; i < 60; i++ {
			a := rng.Range(-1, 1)
			x = append(x, []float64{a})
			y = append(y, math.Sin(a))
		}
		_ = n.Fit(x, y)
		p, _ := n.Predict([]float64{0.3})
		return p
	}
	if build() != build() {
		t.Error("training not deterministic for a fixed seed")
	}
}

func TestPredictDimensionCheck(t *testing.T) {
	n, _ := New(PaperConfig(1))
	_ = n.Fit([][]float64{{1, 2}, {2, 3}}, []float64{1, 2})
	if _, err := n.Predict([]float64{1}); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestNormalizationRecoversScale(t *testing.T) {
	// Targets around −73 dBm: with normalisation the output must come back
	// on the dBm scale, not the normalised one.
	cfg := PaperConfig(13)
	cfg.Epochs = 100
	n, _ := New(cfg)
	var x [][]float64
	var y []float64
	rng := simrand.New(17)
	for i := 0; i < 100; i++ {
		a := rng.Range(0, 1)
		x = append(x, []float64{a})
		y = append(y, -73+4*a)
	}
	_ = n.Fit(x, y)
	pred, _ := n.Predict([]float64{0.5})
	if pred > -60 || pred < -85 {
		t.Errorf("prediction %v not on the dBm scale", pred)
	}
}

func TestFitRejectsBadData(t *testing.T) {
	n, _ := New(PaperConfig(1))
	if err := n.Fit(nil, nil); err == nil {
		t.Error("empty data accepted")
	}
	if err := n.Fit([][]float64{{1}, {2, 3}}, []float64{1, 2}); err == nil {
		t.Error("ragged data accepted")
	}
}

func TestNormalizeInputsImprovesScaleMismatch(t *testing.T) {
	// Features on wildly different scales: with input standardisation the
	// network must still learn; predictions come back on the target scale.
	cfg := PaperConfig(31)
	cfg.NormalizeInputs = true
	cfg.Epochs = 200
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := simrand.New(33)
	var x [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		a := rng.Range(0, 1e4) // large-scale feature
		b := rng.Range(0, 1)   // small-scale feature
		x = append(x, []float64{a, b})
		y = append(y, -70+a/1e4*6-4*b)
	}
	if err := n.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	var sse, sst, mean float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	for i, row := range x {
		pred, err := n.Predict(row)
		if err != nil {
			t.Fatal(err)
		}
		sse += (pred - y[i]) * (pred - y[i])
		sst += (y[i] - mean) * (y[i] - mean)
	}
	if r2 := 1 - sse/sst; r2 < 0.8 {
		t.Errorf("normalised-input fit R² = %v, want > 0.8", r2)
	}
}

func TestConstantFeatureWithNormalization(t *testing.T) {
	// A constant input column has zero variance; standardisation must not
	// divide by zero.
	cfg := PaperConfig(35)
	cfg.NormalizeInputs = true
	cfg.Epochs = 50
	n, _ := New(cfg)
	var x [][]float64
	var y []float64
	for i := 0; i < 50; i++ {
		x = append(x, []float64{1.0, float64(i) / 50})
		y = append(y, float64(i))
	}
	if err := n.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	pred, err := n.Predict([]float64{1.0, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(pred) || math.IsInf(pred, 0) {
		t.Errorf("prediction = %v with constant feature", pred)
	}
}
