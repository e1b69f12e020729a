package knn

import (
	"fmt"
	"sort"

	"repro/internal/ml"
)

// PerKey is the paper's "kNN estimator per MAC address": one xyz-only
// Regressor per one-hot key, each trained only on that key's samples. The
// feature layout is x, y, z followed by a one-hot block at KeyOffset; the
// one-hot block is used solely for routing, and each sub-regressor sees only
// the coordinates.
//
// PerKey is the incremental estimator with *tight* dirty sets: a new
// sample routes to exactly one sub-regressor, so Observe dirties only the
// batch's keys (plus the keys still served by the global fallback, which
// every sample moves). That locality is what makes incremental REM
// rebuilds proportional to the delta.
type PerKey struct {
	// Sub configures every per-key regressor (the paper keeps the tuned
	// plain-kNN hyper-parameters).
	Sub Config
	// KeyOffset is where the one-hot block starts (3 for xyz + MAC).
	KeyOffset int

	fitted bool
	dim    int // fitted feature dimension
	width  int // one-hot block width (the key universe size)
	subs   map[int]*Regressor
	global *Regressor
}

var (
	_ ml.Estimator            = (*PerKey)(nil)
	_ ml.Named                = (*PerKey)(nil)
	_ ml.IncrementalEstimator = (*PerKey)(nil)
)

// Name implements ml.Named.
func (p *PerKey) Name() string {
	return fmt.Sprintf("per-MAC kNN (k=%d, %s)", p.Sub.K, p.Sub.Weights)
}

// Fit implements ml.Estimator.
func (p *PerKey) Fit(x [][]float64, y []float64) error {
	if err := ml.ValidateTrainingData(x, y); err != nil {
		return err
	}
	if err := p.Sub.Validate(); err != nil {
		return err
	}
	if p.KeyOffset < 3 || p.KeyOffset > len(x[0]) {
		return fmt.Errorf("knn: per-key offset %d invalid for feature dim %d", p.KeyOffset, len(x[0]))
	}
	groupsX, groupsY, allXYZ, err := groupByKey(x, y, p.KeyOffset)
	if err != nil {
		return err
	}
	p.subs = make(map[int]*Regressor, len(groupsX))
	for key, gx := range groupsX {
		sub, err := New(p.Sub)
		if err != nil {
			return err
		}
		if err := sub.Fit(gx, groupsY[key]); err != nil {
			return fmt.Errorf("knn: fitting key %d: %w", key, err)
		}
		p.subs[key] = sub
	}
	// Fallback for unseen keys: a regressor over all samples.
	global, err := New(p.Sub)
	if err != nil {
		return err
	}
	if err := global.Fit(allXYZ, y); err != nil {
		return err
	}
	p.global = global
	p.dim = len(x[0])
	p.width = p.dim - p.KeyOffset
	p.fitted = true
	return nil
}

// Observe implements ml.IncrementalEstimator: each row routes to its
// key's sub-regressor (created on first sight) and to the global
// fallback. The dirty set is the batch's keys plus every key that still
// lacks a sub-regressor — those predict through the global fallback,
// which any new sample moves. Not safe concurrently with queries.
func (p *PerKey) Observe(x [][]float64, y []float64) ([]int, error) {
	if !p.fitted {
		return nil, ml.ErrNotFitted
	}
	if err := ml.ValidateObserved(x, y, p.dim); err != nil {
		return nil, err
	}
	if len(x) == 0 {
		return nil, nil
	}
	groupsX, groupsY, allXYZ, err := groupByKey(x, y, p.KeyOffset)
	if err != nil {
		return nil, err
	}
	dirty := map[int]bool{}
	for key, gx := range groupsX {
		dirty[key] = true
		if sub, ok := p.subs[key]; ok {
			if _, err := sub.Observe(gx, groupsY[key]); err != nil {
				return nil, err
			}
			continue
		}
		sub, err := New(p.Sub)
		if err != nil {
			return nil, err
		}
		if err := sub.Fit(gx, groupsY[key]); err != nil {
			return nil, fmt.Errorf("knn: fitting new key %d: %w", key, err)
		}
		p.subs[key] = sub
	}
	if _, err := p.global.Observe(allXYZ, y); err != nil {
		return nil, err
	}
	for k := 0; k < p.width; k++ {
		if _, ok := p.subs[k]; !ok {
			dirty[k] = true
		}
	}
	out := make([]int, 0, len(dirty))
	for k := range dirty {
		out = append(out, k)
	}
	sort.Ints(out)
	return out, nil
}

// Refit implements ml.IncrementalEstimator: every sub-regressor and the
// global fallback merge their insert logs.
func (p *PerKey) Refit() error {
	if !p.fitted {
		return ml.ErrNotFitted
	}
	for _, sub := range p.subs {
		if err := sub.Refit(); err != nil {
			return err
		}
	}
	return p.global.Refit()
}

// Predict implements ml.Estimator.
func (p *PerKey) Predict(q []float64) (float64, error) {
	if !p.fitted {
		return 0, ml.ErrNotFitted
	}
	if len(q) < p.KeyOffset {
		return 0, fmt.Errorf("knn: query dim %d below key offset %d", len(q), p.KeyOffset)
	}
	xyz := q[:3]
	key := hotIndex(q, p.KeyOffset)
	if sub, ok := p.subs[key]; key >= 0 && ok {
		return sub.Predict(xyz)
	}
	return p.global.Predict(xyz)
}

// PredictKeyed is the keyed batch path: it answers xyz positions of one
// key through that key's sub-regressor, or through the global fallback
// when the key has none — bit for bit what Predict returns on the rows
// carrying those positions and key's one-hot at KeyOffset, without
// building them. One candidate buffer serves the whole batch
// (Regressor.PredictBatch). Safe for concurrent use, like Predict.
func (p *PerKey) PredictKeyed(xyz [][]float64, key int) ([]float64, error) {
	if !p.fitted {
		return nil, ml.ErrNotFitted
	}
	r := p.global
	if sub, ok := p.subs[key]; ok {
		r = sub
	}
	return r.PredictBatch(xyz)
}

// groupByKey routes rows into per-key xyz groups (the one-hot block used
// solely for routing) plus the flat xyz list the global fallback trains
// on. Both Fit and Observe group through it, so the layout contract has
// exactly one owner; rows are validated upfront, before anything is
// built.
func groupByKey(x [][]float64, y []float64, offset int) (groupsX map[int][][]float64, groupsY map[int][]float64, allXYZ [][]float64, err error) {
	keys := make([]int, len(x))
	for i, row := range x {
		key := hotIndex(row, offset)
		if key < 0 {
			return nil, nil, nil, fmt.Errorf("knn: row %d has no hot key", i)
		}
		keys[i] = key
	}
	groupsX = map[int][][]float64{}
	groupsY = map[int][]float64{}
	allXYZ = make([][]float64, len(x))
	for i, row := range x {
		xyz := append([]float64(nil), row[:3]...)
		groupsX[keys[i]] = append(groupsX[keys[i]], xyz)
		groupsY[keys[i]] = append(groupsY[keys[i]], y[i])
		allXYZ[i] = xyz
	}
	return groupsX, groupsY, allXYZ, nil
}

// hotIndex returns the index of the single non-zero entry at or after
// offset, or -1 if there is none or several.
func hotIndex(row []float64, offset int) int {
	hot := -1
	for i := offset; i < len(row); i++ {
		if row[i] != 0 {
			if hot >= 0 {
				return -1
			}
			hot = i - offset
		}
	}
	return hot
}
