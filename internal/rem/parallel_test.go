package rem

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/ml/nn"
	"repro/internal/simrand"
)

// waveField is a smooth, key-dependent synthetic predictor.
func waveField(p geom.Vec3, k int) (float64, error) {
	return -50 - 6*math.Sin(p.X+float64(k)) - 4*math.Cos(p.Y*2) - 3*p.Z, nil
}

// pointwise wraps a per-sample predictor as a batch one, evaluating
// each centre on its own.
func pointwise(f func(p geom.Vec3, k int) (float64, error)) BatchPredictFunc {
	return func(centers []geom.Vec3, k int) ([]float64, error) {
		out := make([]float64, len(centers))
		for i, p := range centers {
			v, err := f(p, k)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
}

// TestBuildMapWorkerCountInvariance is the determinism contract: maps
// built with workers=1, 3 and 8 are byte-identical.
func TestBuildMapWorkerCountInvariance(t *testing.T) {
	vol := geom.MustCuboid(geom.V(0, 0, 0), 4, 3, 2.6)
	keys := []string{"AA", "BB", "CC"}
	seq, err := BuildMapBatch(vol, 9, 7, 5, keys, pointwise(waveField), BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := BuildMapBatch(vol, 9, 7, 5, keys, pointwise(waveField), BuildOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	odd, err := BuildMapBatch(vol, 9, 7, 5, keys, pointwise(waveField), BuildOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if seq.NumTiles() != par.NumTiles() || seq.NumTiles() != odd.NumTiles() {
		t.Fatalf("tile counts differ: %d/%d/%d", seq.NumTiles(), par.NumTiles(), odd.NumTiles())
	}
	if !seq.Equal(par) {
		t.Fatal("workers=8 map differs from workers=1 map")
	}
	if !seq.Equal(odd) {
		t.Fatal("workers=3 map differs from workers=1 map")
	}
}

// TestBuildMapParallelErrorPropagates: a failing predictor must surface
// its error and cancel the build under every worker count.
func TestBuildMapParallelErrorPropagates(t *testing.T) {
	vol := geom.MustCuboid(geom.V(0, 0, 0), 1, 1, 1)
	boom := errors.New("boom")
	bad := func(p geom.Vec3, k int) (float64, error) {
		if p.X > 0.5 {
			return 0, boom
		}
		return -60, nil
	}
	for _, workers := range []int{1, 8} {
		m, err := BuildMapBatch(vol, 16, 16, 4, []string{"a"}, pointwise(bad), BuildOptions{Workers: workers})
		if !errors.Is(err, boom) {
			t.Errorf("workers=%d: error = %v, want boom", workers, err)
		}
		if m != nil {
			t.Errorf("workers=%d: partial map returned alongside error", workers)
		}
	}
	badBatch := func(centers []geom.Vec3, k int) ([]float64, error) { return nil, boom }
	if _, err := BuildMapBatch(vol, 4, 4, 4, []string{"a"}, badBatch, BuildOptions{Workers: 4}); !errors.Is(err, boom) {
		t.Errorf("batch error = %v, want boom", err)
	}
	short := func(centers []geom.Vec3, k int) ([]float64, error) { return make([]float64, 1), nil }
	if _, err := BuildMapBatch(vol, 8, 8, 8, []string{"a"}, short, BuildOptions{Workers: 2}); err == nil {
		t.Error("length-mismatched batch result accepted")
	}
}

// TestBuildMapBatchSingleKeyPerCall: the batch contract promises each call
// covers exactly one key.
func TestBuildMapBatchSingleKeyPerCall(t *testing.T) {
	vol := geom.MustCuboid(geom.V(0, 0, 0), 2, 2, 2)
	var mu sync.Mutex
	calls := map[int]int{}
	batch := func(centers []geom.Vec3, k int) ([]float64, error) {
		if len(centers) == 0 {
			return nil, fmt.Errorf("empty batch for key %d", k)
		}
		mu.Lock()
		calls[k] += len(centers)
		mu.Unlock()
		return make([]float64, len(centers)), nil
	}
	m, err := BuildMapBatch(vol, 5, 5, 5, []string{"a", "b"}, batch, BuildOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if calls[0] != 125 || calls[1] != 125 {
		t.Errorf("per-key batched cells = %v, want 125 each", calls)
	}
	if nx, ny, nz := m.Resolution(); nx*ny*nz != 125 {
		t.Errorf("resolution = %d×%d×%d", nx, ny, nz)
	}
}

// TestMapConcurrentQueries drives a built map from many goroutines; under
// -race this proves queries share no mutable state.
func TestMapConcurrentQueries(t *testing.T) {
	vol := geom.MustCuboid(geom.V(0, 0, 0), 4, 3, 2.6)
	m, err := BuildMapBatch(vol, 10, 8, 6, []string{"AA", "BB"}, pointwise(waveField), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantAt, err := m.At("AA", geom.V(1.2, 2.2, 0.7))
	if err != nil {
		t.Fatal(err)
	}
	wantKey, wantBest := m.Strongest(geom.V(3, 1, 2))
	wantCov := m.CoverageFraction(-60)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				v, err := m.At("AA", geom.V(1.2, 2.2, 0.7))
				if err != nil || v != wantAt {
					t.Errorf("concurrent At = %v, %v; want %v", v, err, wantAt)
					return
				}
				key, best := m.Strongest(geom.V(3, 1, 2))
				if key != wantKey || best != wantBest {
					t.Errorf("concurrent Strongest = %q/%v; want %q/%v", key, best, wantKey, wantBest)
					return
				}
				if cov := m.CoverageFraction(-60); cov != wantCov {
					t.Errorf("concurrent CoverageFraction = %v, want %v", cov, wantCov)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestBuildMapNNBatchWorkerInvariance extends the determinism contract to
// the neural network's batched inference: rasterising a fitted NN through
// PredictBatch on any worker count must be byte-identical to the
// per-sample Predict path on one worker. Under -race this also proves the
// pooled-workspace batch path shares no mutable state across workers.
func TestBuildMapNNBatchWorkerInvariance(t *testing.T) {
	rng := simrand.New(61)
	const nKeys = 3
	var x [][]float64
	var y []float64
	for i := 0; i < 150; i++ {
		row := make([]float64, 3+nKeys)
		row[0], row[1], row[2] = rng.Range(0, 4), rng.Range(0, 3), rng.Range(0, 2.6)
		row[3+rng.Intn(nKeys)] = 1
		x = append(x, row)
		y = append(y, -55-6*row[0]+3*row[1]-2*row[2]+rng.Gauss(0, 1))
	}
	cfg := nn.PaperConfig(77)
	cfg.Epochs = 15
	net, err := nn.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	query := func(p geom.Vec3, ki int) []float64 {
		q := make([]float64, 3+nKeys)
		q[0], q[1], q[2] = p.X, p.Y, p.Z
		q[3+ki] = 1
		return q
	}
	perSample := pointwise(func(p geom.Vec3, ki int) (float64, error) { return net.Predict(query(p, ki)) })
	batched := func(centers []geom.Vec3, ki int) ([]float64, error) {
		qs := make([][]float64, len(centers))
		for i, p := range centers {
			qs[i] = query(p, ki)
		}
		return net.PredictBatch(qs)
	}
	vol := geom.MustCuboid(geom.V(0, 0, 0), 4, 3, 2.6)
	keys := []string{"AA", "BB", "CC"}
	ref, err := BuildMapBatch(vol, 8, 6, 4, keys, perSample, BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		got, err := BuildMapBatch(vol, 8, 6, 4, keys, batched, BuildOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(ref) {
			t.Fatalf("workers=%d: NN batch map differs from per-sample map", workers)
		}
	}
}
