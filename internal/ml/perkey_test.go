package ml

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/simrand"
)

// fakeSub is a test-local incremental sub-estimator. It predicts an
// inverse-square-distance average of the rows it has folded in, so a
// row it missed, or one it saw out of order, shows in the bits; rows
// observed since the last Refit stay invisible until the next one.
type fakeSub struct {
	x      [][]float64
	y      []float64
	folded int
}

func (f *fakeSub) Fit(x [][]float64, y []float64) error {
	f.x = append([][]float64(nil), x...)
	f.y = append([]float64(nil), y...)
	return f.Refit()
}

func (f *fakeSub) Observe(x [][]float64, y []float64) ([]int, error) {
	f.x = append(f.x, x...)
	f.y = append(f.y, y...)
	return []int{DirtyAll}, nil
}

func (f *fakeSub) Refit() error {
	f.folded = len(f.x)
	return nil
}

func (f *fakeSub) Predict(q []float64) (float64, error) {
	if len(q) != KeyOffset {
		return 0, fmt.Errorf("fake sub: query has %d features, want the xyz", len(q))
	}
	var num, den float64
	for i := 0; i < f.folded; i++ {
		d := 1.0
		for j := range q {
			d += (q[j] - f.x[i][j]) * (q[j] - f.x[i][j])
		}
		num += f.y[i] / d
		den += 1 / d
	}
	return num / den, nil
}

func newFakePerKey() *PerKey {
	return &PerKey{Sub: func() (Estimator, error) { return &fakeSub{}, nil }}
}

// TestPerKeyFallbackLifecycle pins the fallback's lifetime without a
// timing gate: a Fit covering every key builds none; while a key has no
// rows the fallback exists, takes every row, and keeps that key dirty;
// the Observe bringing the key its rows drops it for good. At every step
// the router predicts bit for bit what a fresh Fit on the cumulative
// rows predicts, for every key.
func TestPerKeyFallbackLifecycle(t *testing.T) {
	const keys = 4
	rng := simrand.New(5)
	batch := func(ks ...int) ([][]float64, []float64) {
		var x [][]float64
		var y []float64
		for _, k := range ks {
			for i := 0; i < 3; i++ {
				row := make([]float64, KeyOffset+keys)
				row[0], row[1], row[2] = rng.Range(0, 4), rng.Range(0, 3), rng.Range(0, 2.6)
				row[KeyOffset+k] = 1
				x = append(x, row)
				y = append(y, rng.Range(-90, -40))
			}
		}
		return x, y
	}
	probes, _ := batch(0, 1, 2, 3)

	full := newFakePerKey()
	if err := full.Fit(batch(0, 1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	if full.fallback != nil {
		t.Fatal("a Fit covering every key built a fallback")
	}

	p := newFakePerKey()
	cx, cy := batch(0, 1, 2) // key 3 has no rows
	if err := p.Fit(cx, cy); err != nil {
		t.Fatal(err)
	}
	check := func(step string, wantFallback bool) {
		t.Helper()
		fb, _ := p.fallback.(*fakeSub)
		switch {
		case !wantFallback && p.fallback != nil:
			t.Fatalf("%s: the fallback outlived the last missing key", step)
		case wantFallback && (fb == nil || len(fb.x) != len(cx)):
			t.Fatalf("%s: fallback %v, want one holding all %d rows", step, p.fallback, len(cx))
		}
		fresh := newFakePerKey()
		if err := fresh.Fit(cx, cy); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < keys; k++ {
			for _, q := range probes {
				q = append([]float64(nil), q...)
				for j := KeyOffset; j < len(q); j++ {
					q[j] = 0
				}
				q[KeyOffset+k] = 1
				got, err := p.Predict(q)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.Predict(q)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: key %d: incremental %v ≠ fresh fit %v", step, k, got, want)
				}
			}
		}
	}
	check("fit", true)

	steps := []struct {
		keys         []int
		dirty        []int
		wantFallback bool
	}{
		{[]int{0}, []int{0, 3}, true},
		{[]int{1, 2}, []int{1, 2, 3}, true},
		{[]int{3, 0}, []int{0, 3}, false}, // key 3's rows drop the fallback
		{[]int{1}, []int{1}, false},       // and it never comes back
	}
	for i, s := range steps {
		bx, by := batch(s.keys...)
		dirty, err := p.Observe(bx, by)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dirty, s.dirty) {
			t.Fatalf("step %d: dirty %v, want %v", i, dirty, s.dirty)
		}
		if err := p.Refit(); err != nil {
			t.Fatal(err)
		}
		cx, cy = append(cx, bx...), append(cy, by...)
		check(fmt.Sprintf("step %d", i), s.wantFallback)
	}
}

// TestPerKeyRejectsMalformedRows: Predict answers only rows of the
// fitted width naming exactly one key, and PredictKeyed only keys inside
// the block — the fallback serves keys without rows, never rows that
// name no key.
func TestPerKeyRejectsMalformedRows(t *testing.T) {
	p := newFakePerKey()
	if _, err := p.Predict([]float64{1, 1, 1, 1, 0, 0}); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("unfitted Predict: %v, want ErrNotFitted", err)
	}
	if _, err := p.PredictKeyed([][]float64{{1, 1, 1}}, 0); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("unfitted PredictKeyed: %v, want ErrNotFitted", err)
	}
	// Three keys; key 2 has no rows, so the fallback is alive.
	x := [][]float64{{1, 1, 1, 1, 0, 0}, {2, 2, 2, 0, 1, 0}}
	if err := p.Fit(x, []float64{-50, -90}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Predict([]float64{1, 1, 1, 0, 0, 1}); err != nil {
		t.Fatalf("key without rows: %v, want the fallback's answer", err)
	}
	for name, q := range map[string][]float64{
		"wider, hot key 4 outside the block": {1, 1, 1, 0, 0, 0, 0, 1},
		"narrower than fitted":               {1, 1, 1, 1, 0},
		"no hot entry":                       {1, 1, 1, 0, 0, 0},
		"two hot entries":                    {1, 1, 1, 1, 1, 0},
	} {
		if v, err := p.Predict(q); err == nil {
			t.Errorf("%s: answered %v, want an error", name, v)
		}
	}
	xyz := [][]float64{{1, 1, 1}}
	if _, err := p.PredictKeyed(xyz, 2); err != nil {
		t.Fatalf("keyed key without rows: %v, want the fallback's answer", err)
	}
	for _, key := range []int{-1, 3, 7} {
		if v, err := p.PredictKeyed(xyz, key); err == nil {
			t.Errorf("keyed key %d outside the block: answered %v, want an error", key, v)
		}
	}
}
