// Package nn implements the feed-forward neural network of the paper's
// §III-B from scratch: fully connected layers, sigmoid/tanh/ReLU/linear
// activations, mean-squared-error loss, mini-batch training with SGD or
// Adam, and target normalisation. The paper's tuned topology — inputs for
// x/y/z plus the one-hot MAC block, one 16-node sigmoid hidden layer, a
// single linear output, Adam optimiser — is available as PaperConfig.
//
// The network is laid out on flat row-major matrices and trains with true
// minibatch GEMM passes by default (one matrix multiply per layer per batch,
// one fused optimiser step per minibatch). The original per-sample-update
// numerics remain available behind Config.PerSampleUpdates and are pinned
// bit-for-bit by golden tests. Inference offers a batch path
// (PredictBatch / PredictBatchInto) that is byte-identical to
// sample-at-a-time Predict and allocation-free after warm-up.
package nn

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/mat"
	"repro/internal/ml"
	"repro/internal/simrand"
)

// Activation is a layer non-linearity.
type Activation int

// Supported activations.
const (
	// Linear is the identity.
	Linear Activation = iota + 1
	// Sigmoid is the logistic function (the paper's hidden activation).
	Sigmoid
	// Tanh is the hyperbolic tangent.
	Tanh
	// ReLU is max(0, x).
	ReLU
)

// String implements fmt.Stringer.
func (a Activation) String() string {
	switch a {
	case Linear:
		return "linear"
	case Sigmoid:
		return "sigmoid"
	case Tanh:
		return "tanh"
	case ReLU:
		return "relu"
	default:
		return fmt.Sprintf("Activation(%d)", int(a))
	}
}

func (a Activation) apply(x float64) float64 {
	switch a {
	case Sigmoid:
		return 1 / (1 + math.Exp(-x))
	case Tanh:
		return math.Tanh(x)
	case ReLU:
		if x < 0 {
			return 0
		}
		return x
	default:
		return x
	}
}

// derivative computes dσ/dx given the activation output.
func (a Activation) derivative(out float64) float64 {
	switch a {
	case Sigmoid:
		return out * (1 - out)
	case Tanh:
		return 1 - out*out
	case ReLU:
		if out > 0 {
			return 1
		}
		return 0
	default:
		return 1
	}
}

// Optimizer selects the weight-update rule.
type Optimizer int

// Supported optimizers.
const (
	// SGD is plain stochastic gradient descent.
	SGD Optimizer = iota + 1
	// Adam is adaptive moment estimation (the paper's choice).
	Adam
)

// String implements fmt.Stringer.
func (o Optimizer) String() string {
	switch o {
	case SGD:
		return "sgd"
	case Adam:
		return "adam"
	default:
		return fmt.Sprintf("Optimizer(%d)", int(o))
	}
}

// LayerSpec declares one dense layer.
type LayerSpec struct {
	// Units is the layer width.
	Units int
	// Activation is the layer non-linearity.
	Activation Activation
}

// Config describes a network and its training regime.
type Config struct {
	// Hidden lists the hidden layers in order.
	Hidden []LayerSpec
	// OutputActivation is the final layer's non-linearity (Linear for
	// regression).
	OutputActivation Activation
	// Optimizer selects SGD or Adam.
	Optimizer Optimizer
	// LearningRate is the optimiser step size.
	LearningRate float64
	// Epochs is the number of passes over the training data.
	Epochs int
	// BatchSize is the mini-batch size.
	BatchSize int
	// NormalizeTargets rescales targets to zero mean / unit variance
	// during training (the paper normalises RSS values).
	NormalizeTargets bool
	// NormalizeInputs standardises each input feature to zero mean / unit
	// variance, so the coordinate block and the one-hot block train on
	// comparable scales.
	NormalizeInputs bool
	// PerSampleUpdates selects the original per-sample training path: one
	// scalar forward/backward and one optimiser step per sample, exactly
	// the numerics of the seed implementation (pinned by golden tests).
	// The default (false) is the minibatch path: whole-batch GEMM
	// forward/backward with the mean gradient and one fused optimiser
	// step per minibatch. The two modes converge to comparable models but
	// are deliberately different numerics; inference is byte-identical to
	// Predict under both.
	PerSampleUpdates bool
	// Seed drives weight initialisation and batch shuffling.
	Seed uint64
}

// PaperConfig is the paper's optimised network: a single 16-node sigmoid
// hidden layer, linear output, Adam, normalised RSS targets.
func PaperConfig(seed uint64) Config {
	return Config{
		Hidden:           []LayerSpec{{Units: 16, Activation: Sigmoid}},
		OutputActivation: Linear,
		Optimizer:        Adam,
		LearningRate:     0.01,
		Epochs:           220,
		BatchSize:        32,
		NormalizeTargets: true,
		Seed:             seed,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	for i, l := range c.Hidden {
		if l.Units < 1 {
			return fmt.Errorf("nn: hidden layer %d has %d units", i, l.Units)
		}
		if l.Activation < Linear || l.Activation > ReLU {
			return fmt.Errorf("nn: hidden layer %d has invalid activation", i)
		}
	}
	if c.OutputActivation < Linear || c.OutputActivation > ReLU {
		return errors.New("nn: invalid output activation")
	}
	if c.Optimizer != SGD && c.Optimizer != Adam {
		return errors.New("nn: invalid optimizer")
	}
	if c.LearningRate <= 0 {
		return errors.New("nn: learning rate must be positive")
	}
	if c.Epochs < 1 {
		return errors.New("nn: epochs must be ≥1")
	}
	if c.BatchSize < 1 {
		return errors.New("nn: batch size must be ≥1")
	}
	return nil
}

// layer is one dense layer's parameters, optimiser state and training
// scratch. Weights are flat row-major (out×in), so a whole minibatch
// forward is one GEMM against the weight rows.
type layer struct {
	in, out    int
	act        Activation
	w          []float64 // out×in, row-major
	b          []float64
	mW, vW     []float64 // Adam moments
	mB, vB     []float64
	outBuf     []float64 // per-sample forward activation cache
	deltaBuf   []float64 // per-sample backward error cache
	inputCache []float64
	// Minibatch scratch, sized batch×out at Fit time.
	actBuf   []float64 // batch activations, batch×out
	deltaBat []float64 // batch deltas, batch×out
	gW       []float64 // batch weight gradient, out×in
	gB       []float64 // batch bias gradient
}

// Network is a trainable feed-forward regressor with a single output.
type Network struct {
	cfg    Config
	layers []*layer
	dim    int
	fitted bool
	// target normalisation
	yMean, yStd float64
	// input standardisation (nil when disabled)
	xMean, xStd []float64
	adamStep    int
	// wsPool holds *mat.Workspace scratch arenas so concurrent Predict /
	// PredictBatch calls are allocation-free after warm-up.
	wsPool sync.Pool
}

var (
	_ ml.Estimator      = (*Network)(nil)
	_ ml.BatchPredictor = (*Network)(nil)
)

// New builds an untrained network; the input dimension is fixed at Fit time.
func New(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Network{cfg: cfg}, nil
}

// build initialises layers for the given input dimension with Xavier/Glorot
// uniform weights.
func (n *Network) build(dim int, rng *simrand.Source) {
	n.dim = dim
	sizes := make([]int, 0, len(n.cfg.Hidden)+2)
	sizes = append(sizes, dim)
	for _, h := range n.cfg.Hidden {
		sizes = append(sizes, h.Units)
	}
	sizes = append(sizes, 1)
	n.layers = n.layers[:0]
	for i := 1; i < len(sizes); i++ {
		act := n.cfg.OutputActivation
		if i-1 < len(n.cfg.Hidden) {
			act = n.cfg.Hidden[i-1].Activation
		}
		l := &layer{
			in:  sizes[i-1],
			out: sizes[i],
			act: act,
		}
		l.w = make([]float64, l.out*l.in)
		limit := math.Sqrt(6 / float64(l.in+l.out))
		for j := range l.w {
			l.w[j] = rng.Range(-limit, limit)
		}
		l.b = make([]float64, l.out)
		l.mW = make([]float64, len(l.w))
		l.vW = make([]float64, len(l.w))
		l.mB = make([]float64, l.out)
		l.vB = make([]float64, l.out)
		l.outBuf = make([]float64, l.out)
		l.deltaBuf = make([]float64, l.out)
		n.layers = append(n.layers, l)
	}
	n.adamStep = 0
}

// forward runs one input through the network, caching activations.
func (n *Network) forward(x []float64) float64 {
	cur := x
	for _, l := range n.layers {
		l.inputCache = cur
		for o := 0; o < l.out; o++ {
			sum := l.b[o]
			row := l.w[o*l.in : (o+1)*l.in]
			for i, v := range cur {
				sum += row[i] * v
			}
			l.outBuf[o] = l.act.apply(sum)
		}
		cur = l.outBuf
	}
	return cur[0]
}

// backward propagates the output error and applies one optimiser step.
func (n *Network) backward(outErr float64, lr float64) {
	last := n.layers[len(n.layers)-1]
	last.deltaBuf[0] = outErr * last.act.derivative(last.outBuf[0])
	for li := len(n.layers) - 2; li >= 0; li-- {
		l := n.layers[li]
		next := n.layers[li+1]
		for o := 0; o < l.out; o++ {
			var sum float64
			for no := 0; no < next.out; no++ {
				sum += next.w[no*next.in+o] * next.deltaBuf[no]
			}
			l.deltaBuf[o] = sum * l.act.derivative(l.outBuf[o])
		}
	}
	n.adamStep++
	for _, l := range n.layers {
		n.updateLayer(l, lr)
	}
}

// Adam hyper-parameters (standard defaults).
const (
	adamBeta1 = 0.9
	adamBeta2 = 0.999
	adamEps   = 1e-8
)

func (n *Network) updateLayer(l *layer, lr float64) {
	switch n.cfg.Optimizer {
	case Adam:
		bc1 := 1 - math.Pow(adamBeta1, float64(n.adamStep))
		bc2 := 1 - math.Pow(adamBeta2, float64(n.adamStep))
		for o := 0; o < l.out; o++ {
			d := l.deltaBuf[o]
			for i := 0; i < l.in; i++ {
				g := d * l.inputCache[i]
				idx := o*l.in + i
				l.mW[idx] = adamBeta1*l.mW[idx] + (1-adamBeta1)*g
				l.vW[idx] = adamBeta2*l.vW[idx] + (1-adamBeta2)*g*g
				l.w[idx] -= lr * (l.mW[idx] / bc1) / (math.Sqrt(l.vW[idx]/bc2) + adamEps)
			}
			l.mB[o] = adamBeta1*l.mB[o] + (1-adamBeta1)*d
			l.vB[o] = adamBeta2*l.vB[o] + (1-adamBeta2)*d*d
			l.b[o] -= lr * (l.mB[o] / bc1) / (math.Sqrt(l.vB[o]/bc2) + adamEps)
		}
	default: // SGD
		for o := 0; o < l.out; o++ {
			d := l.deltaBuf[o]
			for i := 0; i < l.in; i++ {
				l.w[o*l.in+i] -= lr * d * l.inputCache[i]
			}
			l.b[o] -= lr * d
		}
	}
}

// Fit implements ml.Estimator. Unlike the seed, which deep-copied the
// whole [][]float64 design matrix to standardise it, training never
// materialises a second copy: rows are standardised on the fly into a
// reused row (per-sample path) or batch (minibatch path) buffer —
// (v−mean)/std is deterministic, so recomputing it per epoch reproduces
// the exact same bits the one-shot copy held.
func (n *Network) Fit(x [][]float64, y []float64) error {
	if err := ml.ValidateTrainingData(x, y); err != nil {
		return err
	}
	rng := simrand.New(n.cfg.Seed).Derive("nn")
	dim := len(x[0])
	rows := len(x)
	n.build(dim, rng)

	// Input standardisation statistics over the raw input.
	n.xMean, n.xStd = nil, nil
	if n.cfg.NormalizeInputs {
		n.xMean = make([]float64, dim)
		n.xStd = make([]float64, dim)
		for j := 0; j < dim; j++ {
			var sum, sumSq float64
			for _, row := range x {
				sum += row[j]
				sumSq += row[j] * row[j]
			}
			mean := sum / float64(rows)
			variance := sumSq/float64(rows) - mean*mean
			n.xMean[j] = mean
			if variance > 1e-12 {
				n.xStd[j] = math.Sqrt(variance)
			} else {
				n.xStd[j] = 1
			}
		}
	}

	// Target normalisation.
	n.yMean, n.yStd = 0, 1
	targets := y
	if n.cfg.NormalizeTargets {
		var sum, sumSq float64
		for _, v := range y {
			sum += v
			sumSq += v * v
		}
		n.yMean = sum / float64(len(y))
		variance := sumSq/float64(len(y)) - n.yMean*n.yMean
		if variance > 1e-12 {
			n.yStd = math.Sqrt(variance)
		}
		targets = make([]float64, len(y))
		for i, v := range y {
			targets[i] = (v - n.yMean) / n.yStd
		}
	}

	if n.cfg.PerSampleUpdates {
		n.trainPerSample(x, targets, rng)
	} else {
		n.trainMinibatch(x, targets, rng)
	}
	n.fitted = true
	return nil
}

// standardizeInto writes the standardised row into dst; (v−mean)/std is the
// same arithmetic the seed applied when it copied the design matrix, so
// every recomputation yields the seed's exact bits.
func (n *Network) standardizeInto(dst, row []float64) {
	for j, v := range row {
		dst[j] = (v - n.xMean[j]) / n.xStd[j]
	}
}

// trainPerSample is the compatibility path: one forward/backward and one
// optimiser step per sample, in shuffle order — the seed implementation's
// exact numerics (same rng consumption, same accumulation order).
func (n *Network) trainPerSample(x [][]float64, targets []float64, rng *simrand.Source) {
	var rowBuf []float64
	if n.xMean != nil {
		rowBuf = make([]float64, n.dim)
	}
	order := make([]int, len(x))
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < n.cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, idx := range order {
			row := x[idx]
			if rowBuf != nil {
				n.standardizeInto(rowBuf, row)
				row = rowBuf
			}
			pred := n.forward(row)
			outErr := pred - targets[idx] // d(MSE/2)/dpred
			n.backward(outErr, n.cfg.LearningRate)
		}
	}
}

// trainMinibatch is the default path: gather each shuffled minibatch into a
// flat batch matrix (standardising on the fly), run one GEMM forward and
// one GEMM backward for the whole batch, and apply a single fused optimiser
// step on the mean gradient.
func (n *Network) trainMinibatch(x [][]float64, targets []float64, rng *simrand.Source) {
	dim := n.dim
	rows := len(x)
	bs := n.cfg.BatchSize
	if bs > rows {
		bs = rows
	}
	for _, l := range n.layers {
		l.actBuf = make([]float64, bs*l.out)
		l.deltaBat = make([]float64, bs*l.out)
		l.gW = make([]float64, len(l.w))
		l.gB = make([]float64, l.out)
	}
	xb := make([]float64, bs*dim)
	yb := make([]float64, bs)
	order := make([]int, rows)
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < n.cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < rows; start += bs {
			end := min(start+bs, rows)
			batch := end - start
			for r := 0; r < batch; r++ {
				idx := order[start+r]
				d := xb[r*dim : (r+1)*dim]
				if n.xMean != nil {
					n.standardizeInto(d, x[idx])
				} else {
					copy(d, x[idx])
				}
				yb[r] = targets[idx]
			}
			n.forwardBatch(xb, batch)
			n.backwardBatch(xb, yb, batch)
		}
	}
}

// forwardBatch computes activations for a whole batch: one GEMM per layer
// (batch×in times the in-major weight rows), bias folded into the
// accumulator, activation applied in place.
func (n *Network) forwardBatch(xb []float64, batch int) {
	cur := xb[:batch*n.dim]
	for _, l := range n.layers {
		out := l.actBuf[:batch*l.out]
		mat.MatMulBTBias(out, cur, l.w, l.b, batch, l.in, l.out)
		for i, v := range out {
			out[i] = l.act.apply(v)
		}
		cur = out
	}
}

// backwardBatch propagates the whole batch's deltas (one GEMM per layer),
// forms the mean gradient (∇W = Δᵀ·X as a GEMM, ∇b as column sums) and
// applies one fused optimiser step.
func (n *Network) backwardBatch(xb, yb []float64, batch int) {
	last := n.layers[len(n.layers)-1]
	invB := 1 / float64(batch)
	for r := 0; r < batch; r++ {
		for o := 0; o < last.out; o++ {
			v := last.actBuf[r*last.out+o]
			last.deltaBat[r*last.out+o] = (v - yb[r]) * invB * last.act.derivative(v)
		}
	}
	for li := len(n.layers) - 2; li >= 0; li-- {
		l, next := n.layers[li], n.layers[li+1]
		mat.MatMul(l.deltaBat[:batch*l.out], next.deltaBat[:batch*next.out], next.w, batch, next.out, l.out)
		for i, v := range l.actBuf[:batch*l.out] {
			l.deltaBat[i] *= l.act.derivative(v)
		}
	}
	n.adamStep++
	input := xb[:batch*n.dim]
	for _, l := range n.layers {
		mat.MatMulAT(l.gW, l.deltaBat[:batch*l.out], input, batch, l.out, l.in)
		for o := range l.gB {
			l.gB[o] = 0
		}
		for r := 0; r < batch; r++ {
			d := l.deltaBat[r*l.out : (r+1)*l.out]
			mat.VecAdd(l.gB, d)
		}
		n.applyGradients(l)
		input = l.actBuf[:batch*l.out]
	}
}

// applyGradients performs one optimiser step from the accumulated batch
// gradients as fused sweeps over the flat parameter arrays.
func (n *Network) applyGradients(l *layer) {
	lr := n.cfg.LearningRate
	switch n.cfg.Optimizer {
	case Adam:
		bc1 := 1 - math.Pow(adamBeta1, float64(n.adamStep))
		bc2 := 1 - math.Pow(adamBeta2, float64(n.adamStep))
		adamFused(l.w, l.gW, l.mW, l.vW, lr, bc1, bc2)
		adamFused(l.b, l.gB, l.mB, l.vB, lr, bc1, bc2)
	default: // SGD
		mat.Axpy(-lr, l.gW, l.w)
		mat.Axpy(-lr, l.gB, l.b)
	}
}

// adamFused is one Adam step over a flat parameter array: moment update,
// bias correction and weight step in a single sweep.
func adamFused(w, g, m, v []float64, lr, bc1, bc2 float64) {
	for i, gi := range g {
		m[i] = adamBeta1*m[i] + (1-adamBeta1)*gi
		v[i] = adamBeta2*v[i] + (1-adamBeta2)*gi*gi
		w[i] -= lr * (m[i] / bc1) / (math.Sqrt(v[i]/bc2) + adamEps)
	}
}

// workspace borrows a scratch arena from the pool; callers must Reset and
// return it. The pool keeps concurrent inference allocation-free once each
// worker's arena has grown to the working-set size.
func (n *Network) workspace() *mat.Workspace {
	if ws, ok := n.wsPool.Get().(*mat.Workspace); ok {
		return ws
	}
	return mat.NewWorkspace(0)
}

func (n *Network) release(ws *mat.Workspace) {
	ws.Reset()
	n.wsPool.Put(ws)
}

// Predict implements ml.Estimator. It is safe for concurrent use once Fit
// has returned and performs no heap allocations after warm-up: the scaled
// input and per-layer activation buffers live in a pooled Workspace.
func (n *Network) Predict(x []float64) (float64, error) {
	if !n.fitted {
		return 0, ml.ErrNotFitted
	}
	if len(x) != n.dim {
		return 0, fmt.Errorf("nn: query dim %d, want %d", len(x), n.dim)
	}
	ws := n.workspace()
	defer n.release(ws)
	cur := x
	if n.xMean != nil {
		scaled := ws.TakeUninit(len(x))
		n.standardizeInto(scaled, x)
		cur = scaled
	}
	// One-row GEMM per layer: the same kernel the batch path runs, so the
	// per-sample/batch bit-identity is structural — there is exactly one
	// copy of the order-critical accumulation loop.
	for _, l := range n.layers {
		next := ws.TakeUninit(l.out)
		mat.MatMulBTBias(next, cur, l.w, l.b, 1, l.in, l.out)
		for i, v := range next {
			next[i] = l.act.apply(v)
		}
		cur = next
	}
	return cur[0]*n.yStd + n.yMean, nil
}

// PredictBatch implements ml.BatchPredictor: one GEMM per layer for the
// whole batch, byte-identical to calling Predict row by row. It is safe for
// concurrent use once Fit has returned.
func (n *Network) PredictBatch(x [][]float64) ([]float64, error) {
	out := make([]float64, len(x))
	if err := n.PredictBatchInto(out, x); err != nil {
		return nil, err
	}
	return out, nil
}

// PredictBatchInto is PredictBatch writing into a caller-provided slice, so
// steady-state batch inference performs zero heap allocations: all scratch
// comes from a pooled Workspace that stops growing once it has seen the
// largest batch.
func (n *Network) PredictBatchInto(dst []float64, x [][]float64) error {
	if !n.fitted {
		return ml.ErrNotFitted
	}
	if len(dst) < len(x) {
		return fmt.Errorf("nn: dst length %d for %d queries", len(dst), len(x))
	}
	batch := len(x)
	if batch == 0 {
		return nil
	}
	for i, row := range x {
		if len(row) != n.dim {
			return fmt.Errorf("nn: query %d dim %d, want %d", i, len(row), n.dim)
		}
	}
	ws := n.workspace()
	defer n.release(ws)
	xb := ws.TakeUninit(batch * n.dim)
	for i, row := range x {
		d := xb[i*n.dim : (i+1)*n.dim]
		if n.xMean != nil {
			n.standardizeInto(d, row)
		} else {
			copy(d, row)
		}
	}
	cur := xb
	for _, l := range n.layers {
		next := ws.TakeUninit(batch * l.out)
		mat.MatMulBTBias(next, cur, l.w, l.b, batch, l.in, l.out)
		for i, v := range next {
			next[i] = l.act.apply(v)
		}
		cur = next
	}
	for r := 0; r < batch; r++ {
		dst[r] = cur[r]*n.yStd + n.yMean
	}
	return nil
}
