package ml

import (
	"errors"
	"fmt"
)

// KeyOffset is the column where the one-hot key block starts in the
// design rows the per-key estimators read: x, y, z, then one column per
// key (the MAC vocabulary), as core.designRows lays them out.
const KeyOffset = 3

// HotKey returns the index, within the one-hot block that starts at
// KeyOffset, of row's single non-zero entry, or -1 if there is none or
// several. It is the one scanner every per-key layout routes by.
func HotKey(row []float64) int {
	hot := -1
	for i := KeyOffset; i < len(row); i++ {
		if row[i] != 0 {
			if hot >= 0 {
				return -1
			}
			hot = i - KeyOffset
		}
	}
	return hot
}

// PerKey routes each sample to its own key's sub-estimator, trained on
// the xyz of that key's rows only: the paper's "kNN estimator per MAC
// address" and mean-per-MAC baseline, and per-MAC IDW and kriging
// beyond it. The one-hot block is used solely for routing.
//
// PerKey is incremental with tight dirty sets: a row moves exactly one
// sub-estimator, so Observe dirties the batch's keys and no others. A
// sub without a native incremental path is lifted by NewRefitAdapter,
// which refits only that key's rows.
//
// A key with no rows yet is answered by a fallback over every row. Subs
// are only ever added, so the fallback is built, and fed rows, only
// while some key in the block has none; it is dropped for good on the
// Observe that gives the last key its rows, and a Fit that covers every
// key never builds it. While it lives, every row moves it, so the keys
// it serves are dirty on every Observe.
//
// Predict rejects a row whose width is not the fitted one, or whose
// block has no hot entry or several; PredictKeyed rejects a key outside
// the block. Predict and PredictKeyed are safe for concurrent use once
// Fit or Refit has returned; Observe and Refit are not.
type PerKey struct {
	// Sub builds a fresh sub-estimator; it is called once per key and
	// once for the fallback.
	Sub func() (Estimator, error)

	dim      int                    // fitted row width; 0 before Fit
	subs     []IncrementalEstimator // by key; nil while the key has no rows
	fallback IncrementalEstimator   // every row's xyz; non-nil iff a sub is nil
}

var _ IncrementalEstimator = (*PerKey)(nil)

// Fit implements Estimator.
func (p *PerKey) Fit(x [][]float64, y []float64) error {
	if p.Sub == nil {
		return errors.New("ml: per-key estimator needs a Sub")
	}
	if err := ValidateTrainingData(x, y); err != nil {
		return err
	}
	if len(x[0]) <= KeyOffset {
		return fmt.Errorf("ml: per-key rows have %d features, no one-hot block after column %d", len(x[0]), KeyOffset)
	}
	width := len(x[0]) - KeyOffset
	gx, gy, all, err := split(x, y, width)
	if err != nil {
		return err
	}
	subs := make([]IncrementalEstimator, width)
	missing := false
	for k := range subs {
		if gx[k] == nil {
			missing = true
			continue
		}
		if subs[k], err = p.fit(gx[k], gy[k]); err != nil {
			return fmt.Errorf("ml: fitting key %d: %w", k, err)
		}
	}
	var fallback IncrementalEstimator
	if missing {
		if fallback, err = p.fit(all, y); err != nil {
			return fmt.Errorf("ml: fitting the fallback: %w", err)
		}
	}
	p.dim, p.subs, p.fallback = len(x[0]), subs, fallback
	return nil
}

// Observe implements IncrementalEstimator: each row goes to its key's
// sub (built on the key's first rows) and, while it lives, to the
// fallback. The dirty set is the batch's keys plus the keys the
// fallback still serves.
func (p *PerKey) Observe(x [][]float64, y []float64) ([]int, error) {
	if p.dim == 0 {
		return nil, ErrNotFitted
	}
	if err := ValidateObserved(x, y, p.dim); err != nil {
		return nil, err
	}
	if len(x) == 0 {
		return nil, nil
	}
	gx, gy, all, err := split(x, y, len(p.subs))
	if err != nil {
		return nil, err
	}
	for k, rows := range gx {
		switch {
		case rows == nil:
		case p.subs[k] != nil:
			if _, err := p.subs[k].Observe(rows, gy[k]); err != nil {
				return nil, fmt.Errorf("ml: observing key %d: %w", k, err)
			}
		default:
			if p.subs[k], err = p.fit(rows, gy[k]); err != nil {
				return nil, fmt.Errorf("ml: fitting new key %d: %w", k, err)
			}
		}
	}
	var dirty []int
	missing := false
	for k, rows := range gx {
		missing = missing || p.subs[k] == nil
		if rows != nil || p.subs[k] == nil {
			dirty = append(dirty, k)
		}
	}
	if !missing {
		p.fallback = nil
		return dirty, nil
	}
	if _, err := p.fallback.Observe(all, y); err != nil {
		return nil, fmt.Errorf("ml: observing the fallback: %w", err)
	}
	return dirty, nil
}

// Refit implements IncrementalEstimator. A sub with nothing pending
// refits as a no-op, so the cost follows the observed keys.
func (p *PerKey) Refit() error {
	if p.dim == 0 {
		return ErrNotFitted
	}
	for k, sub := range p.subs {
		if sub == nil {
			continue
		}
		if err := sub.Refit(); err != nil {
			return fmt.Errorf("ml: refitting key %d: %w", k, err)
		}
	}
	if p.fallback != nil {
		return p.fallback.Refit()
	}
	return nil
}

// Predict implements Estimator.
func (p *PerKey) Predict(q []float64) (float64, error) {
	if p.dim == 0 {
		return 0, ErrNotFitted
	}
	if len(q) != p.dim {
		return 0, fmt.Errorf("ml: per-key query has %d features, want %d", len(q), p.dim)
	}
	key := HotKey(q)
	if key < 0 {
		return 0, errors.New("ml: per-key query has no single hot key")
	}
	return p.model(key).Predict(q[:KeyOffset])
}

// PredictKeyed is the keyed batch path: it answers bare xyz positions
// of one key through that key's model — bit for bit what Predict returns
// on rows carrying those positions and the key's hot entry, without
// building them. The model's own batch path serves the whole run.
func (p *PerKey) PredictKeyed(xyz [][]float64, key int) ([]float64, error) {
	if p.dim == 0 {
		return nil, ErrNotFitted
	}
	if key < 0 || key >= len(p.subs) {
		return nil, fmt.Errorf("ml: key %d outside the %d-key block", key, len(p.subs))
	}
	return PredictAll(p.model(key), xyz)
}

// model is the estimator answering key: its sub, or the fallback while
// the key has no rows.
func (p *PerKey) model(key int) Estimator {
	if sub := p.subs[key]; sub != nil {
		return sub
	}
	return p.fallback
}

// fit builds a sub-estimator on rows, lifted to the incremental
// contract when it has no native path.
func (p *PerKey) fit(x [][]float64, y []float64) (IncrementalEstimator, error) {
	est, err := p.Sub()
	if err != nil {
		return nil, err
	}
	inc := NewRefitAdapter(est)
	if err := inc.Fit(x, y); err != nil {
		return nil, err
	}
	return inc, nil
}

// split resolves every row's hot key before anything is built or
// mutated, so a malformed row rejects the whole batch, then groups the
// rows' xyz and targets by key. all is every row's xyz in row order,
// for the fallback; the xyz share one copied backing array.
func split(x [][]float64, y []float64, width int) (gx [][][]float64, gy [][]float64, all [][]float64, err error) {
	keys := make([]int, len(x))
	for i, row := range x {
		if keys[i] = HotKey(row); keys[i] < 0 {
			return nil, nil, nil, fmt.Errorf("ml: row %d has no single hot key", i)
		}
	}
	gx = make([][][]float64, width)
	gy = make([][]float64, width)
	all = make([][]float64, len(x))
	flat := make([]float64, len(x)*KeyOffset)
	for i, row := range x {
		xyz := flat[i*KeyOffset : (i+1)*KeyOffset : (i+1)*KeyOffset]
		copy(xyz, row)
		all[i] = xyz
		gx[keys[i]] = append(gx[keys[i]], xyz)
		gy[keys[i]] = append(gy[keys[i]], y[i])
	}
	return gx, gy, all, nil
}
