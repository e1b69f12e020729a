// Package rem turns trained estimators into queryable Radio Environmental
// Maps: dense 3-D prediction grids with trilinear interpolation, plus
// coverage analysis (dark-region detection, best-AP queries) for the
// network-planning and relay-placement use cases the paper's introduction
// motivates. It also provides two classic geostatistical interpolators —
// inverse-distance weighting and ordinary kriging with a fitted exponential
// variogram — as alternative estimators beyond the paper's kNN/NN set.
package rem

import (
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/ml"
)

// IDW is an inverse-distance-weighting interpolator over xyz features.
type IDW struct {
	// Power is the distance exponent (2 is the classic choice).
	Power float64
	// Smoothing is added to every distance to avoid singularities and
	// control smoothness.
	Smoothing float64

	x [][]float64
	y []float64
}

var _ ml.Estimator = (*IDW)(nil)

// Fit implements ml.Estimator.
func (w *IDW) Fit(x [][]float64, y []float64) error {
	if err := ml.ValidateTrainingData(x, y); err != nil {
		return err
	}
	if w.Power <= 0 {
		return fmt.Errorf("rem: IDW power must be positive, got %g", w.Power)
	}
	if w.Smoothing < 0 {
		return fmt.Errorf("rem: IDW smoothing must be non-negative")
	}
	w.x = make([][]float64, len(x))
	for i, row := range x {
		w.x[i] = append([]float64(nil), row...)
	}
	w.y = append([]float64(nil), y...)
	return nil
}

// Predict implements ml.Estimator.
func (w *IDW) Predict(q []float64) (float64, error) {
	if w.x == nil {
		return 0, ml.ErrNotFitted
	}
	if len(q) != len(w.x[0]) {
		return 0, fmt.Errorf("rem: IDW query dim %d, want %d", len(q), len(w.x[0]))
	}
	var wSum, vSum float64
	for i, row := range w.x {
		d := dist(q, row) + w.Smoothing
		if d == 0 {
			return w.y[i], nil
		}
		wt := 1 / math.Pow(d, w.Power)
		wSum += wt
		vSum += wt * w.y[i]
	}
	return vSum / wSum, nil
}

func dist(a, b []float64) float64 {
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// Kriging is an ordinary-kriging interpolator with an exponential variogram
// fitted to the training data. Intended for per-MAC use (small n); the
// kriging system is O(n³) to factor.
type Kriging struct {
	// Nugget is the variogram value at h→0 (measurement noise); negative
	// means "estimate from data".
	Nugget float64
	// MaxPoints caps the training size; larger sets are subsampled evenly
	// to bound the O(n³) solve.
	MaxPoints int

	x [][]float64
	y []float64
	// chol is the Cholesky factor of the covariance matrix C (SPD fast
	// path); lu is the seed's bordered variogram system, kept as a
	// fallback for variograms whose covariance assembly is not positive
	// definite.
	chol *mat.CholFactor
	lu   *mat.LU
	// cInvOne is C⁻¹·1 and oneCInvOne is 1ᵀC⁻¹1, precomputed once so each
	// Predict needs a single triangular solve.
	cInvOne    []float64
	oneCInvOne float64
	mean       float64
	sill       float64
	rng        float64
	nugget     float64
}

var _ ml.Estimator = (*Kriging)(nil)

// variogram evaluates the fitted exponential model at lag h.
func (k *Kriging) variogram(h float64) float64 {
	if h <= 0 {
		return 0
	}
	return k.nugget + k.sill*(1-math.Exp(-h/k.rng))
}

// covariance is the model's covariance form C(h) = sill + nugget − γ(h):
// symmetric positive definite, so the kriging system factors with Cholesky
// at half the flop count of the seed's LU over the bordered variogram
// system.
func (k *Kriging) covariance(h float64) float64 {
	if h <= 0 {
		return k.nugget + k.sill
	}
	return k.sill * math.Exp(-h/k.rng)
}

// Fit implements ml.Estimator: it fits the variogram, assembles the ordinary
// kriging system and factors it once.
func (k *Kriging) Fit(x [][]float64, y []float64) error {
	if err := ml.ValidateTrainingData(x, y); err != nil {
		return err
	}
	if len(x) < 3 {
		return fmt.Errorf("rem: kriging needs ≥3 points, got %d", len(x))
	}
	maxPts := k.MaxPoints
	if maxPts <= 0 {
		maxPts = 400
	}
	// Even subsample if oversized.
	if len(x) > maxPts {
		step := float64(len(x)) / float64(maxPts)
		var sx [][]float64
		var sy []float64
		for i := 0; i < maxPts; i++ {
			j := int(float64(i) * step)
			sx = append(sx, x[j])
			sy = append(sy, y[j])
		}
		x, y = sx, sy
	}
	k.x = make([][]float64, len(x))
	for i, row := range x {
		k.x[i] = append([]float64(nil), row...)
	}
	k.y = append([]float64(nil), y...)

	if err := k.fitVariogram(); err != nil {
		return err
	}

	if err := k.factorSystem(); err != nil {
		return err
	}
	var mean float64
	for _, v := range k.y {
		mean += v
	}
	k.mean = mean / float64(len(k.y))
	return nil
}

// factorSystem factors the ordinary kriging system. The fast path builds
// the covariance matrix C (SPD by construction for the exponential model
// plus nugget) and Cholesky-factors it; the unbiasedness constraint is then
// handled per query through the Schur complement of the bordered system,
// using the precomputed C⁻¹·1. If the covariance assembly is numerically
// indefinite (degenerate variograms), it falls back to the seed's LU over
// the bordered variogram system [Γ 1; 1ᵀ 0] — same weights either way, via
// a different factorisation.
func (k *Kriging) factorSystem() error {
	n := len(k.x)
	k.chol, k.lu = nil, nil
	// Pairwise distances once (symmetric): shared by the covariance
	// assembly and, if Cholesky rejects it, the variogram fallback.
	dists := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := dist(k.x[i], k.x[j])
			dists[i*n+j] = d
			dists[j*n+i] = d
		}
	}
	c := mat.New(n, n)
	for i := 0; i < n; i++ {
		// A small diagonal jitter keeps near-duplicate points solvable.
		c.Set(i, i, k.covariance(0)+1e-9)
		for j := i + 1; j < n; j++ {
			v := k.covariance(dists[i*n+j])
			c.Set(i, j, v)
			c.Set(j, i, v)
		}
	}
	chol, err := mat.CholeskyFactor(c)
	if err == nil {
		ones := make([]float64, n)
		for i := range ones {
			ones[i] = 1
		}
		cInvOne, err := chol.Solve(ones)
		if err == nil {
			var denom float64
			for _, v := range cInvOne {
				denom += v
			}
			if !math.IsNaN(denom) && !math.IsInf(denom, 0) && math.Abs(denom) > 1e-12 {
				k.chol = chol
				k.cInvOne = cInvOne
				k.oneCInvOne = denom
				return nil
			}
		}
	}
	// Fallback: bordered variogram system with LU.
	a := mat.New(n+1, n+1)
	for i := 0; i < n; i++ {
		a.Set(i, i, 1e-9)
		for j := i + 1; j < n; j++ {
			v := k.variogram(dists[i*n+j])
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
		a.Set(i, n, 1)
		a.Set(n, i, 1)
	}
	lu, err := mat.Factor(a)
	if err != nil {
		return fmt.Errorf("rem: kriging system: %w", err)
	}
	k.lu = lu
	return nil
}

// fitVariogram estimates nugget, sill and range from the empirical
// variogram via method-of-moments binning and a 1-D search over the range.
func (k *Kriging) fitVariogram() error {
	n := len(k.x)
	// Empirical semivariances binned by lag.
	const nBins = 12
	var maxLag float64
	for i := 1; i < n; i++ {
		if d := dist(k.x[0], k.x[i]); d > maxLag {
			maxLag = d
		}
	}
	if maxLag == 0 {
		return fmt.Errorf("rem: all kriging points coincide")
	}
	binW := maxLag / nBins
	sums := make([]float64, nBins)
	counts := make([]int, nBins)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			h := dist(k.x[i], k.x[j])
			b := int(h / binW)
			if b >= nBins {
				b = nBins - 1
			}
			d := k.y[i] - k.y[j]
			sums[b] += d * d / 2
			counts[b]++
		}
	}
	var lags, gammas []float64
	for b := 0; b < nBins; b++ {
		if counts[b] == 0 {
			continue
		}
		lags = append(lags, (float64(b)+0.5)*binW)
		gammas = append(gammas, sums[b]/float64(counts[b]))
	}
	if len(lags) < 2 {
		return fmt.Errorf("rem: not enough lag bins for a variogram")
	}

	nugget := k.Nugget
	if nugget < 0 {
		// Estimate as a fraction of the first bin's semivariance.
		nugget = 0.5 * gammas[0]
	}
	// Sill: plateau level (mean of the top third of bins).
	top := len(gammas) - len(gammas)/3
	var sill float64
	for _, g := range gammas[top:] {
		sill += g
	}
	sill /= float64(len(gammas) - top)
	sill -= nugget
	if sill <= 0 {
		sill = math.Max(gammas[len(gammas)-1]-nugget, 1e-6)
	}
	// Range: 1-D grid search minimising squared error.
	bestRange, bestErr := lags[len(lags)-1]/3, math.Inf(1)
	for _, cand := range lags {
		if cand <= 0 {
			continue
		}
		var sse float64
		for i, h := range lags {
			model := nugget + sill*(1-math.Exp(-h/cand))
			sse += (model - gammas[i]) * (model - gammas[i])
		}
		if sse < bestErr {
			bestErr = sse
			bestRange = cand
		}
	}
	k.nugget = nugget
	k.sill = sill
	k.rng = bestRange
	return nil
}

// Predict implements ml.Estimator by solving the kriging weights for the
// query point. On the Cholesky path the bordered system reduces, via its
// Schur complement, to one triangular solve per query:
//
//	w = C⁻¹c₀ − μ·C⁻¹1  with  μ = (1ᵀC⁻¹c₀ − 1) / 1ᵀC⁻¹1
func (k *Kriging) Predict(q []float64) (float64, error) {
	if k.chol == nil && k.lu == nil {
		return 0, ml.ErrNotFitted
	}
	if len(q) != len(k.x[0]) {
		return 0, fmt.Errorf("rem: kriging query dim %d, want %d", len(q), len(k.x[0]))
	}
	n := len(k.x)
	var out float64
	if k.chol != nil {
		rhs := make([]float64, n)
		for i := 0; i < n; i++ {
			rhs[i] = k.covariance(dist(q, k.x[i]))
		}
		// In-place solve: rhs becomes a = C⁻¹c₀.
		if err := k.chol.SolveInto(rhs, rhs); err != nil {
			return 0, err
		}
		var sumA float64
		for _, v := range rhs {
			sumA += v
		}
		mu := (sumA - 1) / k.oneCInvOne
		for i, a := range rhs {
			out += (a - mu*k.cInvOne[i]) * k.y[i]
		}
	} else {
		rhs := make([]float64, n+1)
		for i := 0; i < n; i++ {
			rhs[i] = k.variogram(dist(q, k.x[i]))
		}
		rhs[n] = 1
		w, err := k.lu.Solve(rhs)
		if err != nil {
			return 0, err
		}
		for i := 0; i < n; i++ {
			out += w[i] * k.y[i]
		}
	}
	if math.IsNaN(out) || math.IsInf(out, 0) {
		return k.mean, nil
	}
	return out, nil
}

// VariogramParams exposes the fitted variogram for inspection.
func (k *Kriging) VariogramParams() (nugget, sill, rang float64) {
	return k.nugget, k.sill, k.rng
}
