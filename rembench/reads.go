package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/rem"
	"repro/internal/remobs"
	"repro/internal/remserve"
	"repro/internal/remshard"
	"repro/internal/remstore"
)

// The read workloads serve the `remgen -stream -shards 2 -serve`
// deployment: the paper-scale mission streamed into a 2-shard store,
// fronted by remserve from the moment the store exists. Traffic starts
// once the stream has published its last window, so every answer has
// one right value: the final merged snapshot's.

// readSystem is one booted read deployment.
type readSystem struct {
	ss     *remshard.ShardedStore
	merged *rem.Map
	obs    *remobs.Observer
	srv    *server
}

// bootReads flies the mission, streams it into the sharded store while
// serving, and returns once the first answer over the socket is right.
func bootReads(t *tracer) (*readSystem, error) {
	sys := &readSystem{obs: remobs.New(0)}
	cfg := core.DefaultStreamConfig(deploySeed)
	cfg.Shards = 2
	cfg.Workers = loadConns
	cfg.Observer = sys.obs
	var serveErr error
	cfg.OnStore = func(_ *remstore.Store, ss *remshard.ShardedStore) {
		srv := remserve.New(t.backend(remserve.ShardedBackend(ss), "remshard"), remserve.Options{Observer: sys.obs})
		sys.srv, serveErr = serve(srv, t)
	}
	res, err := core.RunStream(cfg)
	if err == nil {
		err = serveErr
	}
	if err == nil {
		sys.ss = res.Sharded
		sys.merged, err = sys.ss.MergedSnapshot()
	}
	if err == nil {
		// A sharded store tags a point answer with its owning shard's
		// version.
		var ver uint64
		if _, _, ver, err = sys.ss.Strongest(sys.merged.Volume().Center()); err == nil {
			err = firstAnswer(sys.srv.url, sys.merged, ver)
		}
	}
	if err != nil {
		if sys.srv != nil {
			sys.srv.close()
		}
		return nil, err
	}
	return sys, nil
}

func (s *readSystem) close() error { return s.srv.close() }

// firstAnswer asks GET /strongest at the volume centre over a fresh
// connection and checks the answer against m and the serving version.
func firstAnswer(base string, m *rem.Map, version uint64) error {
	c := newClient(1)
	defer c.CloseIdleConnections()
	p := m.Volume().Center()
	resp, err := c.Get(base + "/strongest?" + pointQuery(p))
	if err != nil {
		return fmt.Errorf("first answer: %w", err)
	}
	var w worker
	_, err = w.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("first answer: %w", err)
	}
	if resp.StatusCode != 200 {
		return fmt.Errorf("first answer: status %d: %s", resp.StatusCode, w.buf.Bytes())
	}
	key, val := m.Strongest(p)
	if err := checkKeyed(w.buf.Bytes(), key, val, version); err != nil {
		return fmt.Errorf("first answer: %w", err)
	}
	return nil
}

// pointQuery renders x, y, z as query parameters, shortest round-trip.
func pointQuery(p geom.Vec3) string {
	return "x=" + strconv.FormatFloat(p.X, 'g', -1, 64) +
		"&y=" + strconv.FormatFloat(p.Y, 'g', -1, 64) +
		"&z=" + strconv.FormatFloat(p.Z, 'g', -1, 64)
}

// randPoint draws a point uniformly inside vol.
func randPoint(r *rand.Rand, vol geom.Cuboid) geom.Vec3 {
	s := vol.Size()
	return geom.V(vol.Min.X+r.Float64()*s.X, vol.Min.Y+r.Float64()*s.Y, vol.Min.Z+r.Float64()*s.Z)
}

// keyPicker draws keys Zipf-skewed over a vocabulary: a seeded
// permutation decides which keys are popular.
type keyPicker struct {
	z    *rand.Zipf
	perm []int
	keys []string
}

func newKeyPicker(r *rand.Rand, keys []string) *keyPicker {
	return &keyPicker{
		z:    rand.NewZipf(r, 1.2, 1, uint64(len(keys)-1)),
		perm: r.Perm(len(keys)),
		keys: keys,
	}
}

func (kp *keyPicker) next() string { return kp.keys[kp.perm[kp.z.Uint64()]] }

// pointReadPools builds each worker's request pool: 80% GET /at with
// Zipf-skewed keys, 20% GET /strongest, points uniform in the volume.
// Every request carries the in-process answer it must match.
func pointReadPools(sys *readSystem, r *rand.Rand, workers, per int) ([][]request, error) {
	kp := newKeyPicker(r, sys.merged.Keys())
	vol := sys.merged.Volume()
	pools := make([][]request, workers)
	for w := range pools {
		pool := make([]request, 0, per)
		for len(pool) < per {
			p := randPoint(r, vol)
			if r.Float64() < 0.8 {
				key := kp.next()
				want, err := sys.merged.At(key, p)
				if err != nil {
					return nil, err
				}
				got, ver, err := sys.ss.At(key, p)
				if err != nil {
					return nil, err
				}
				if err := sameBits([]float64{got}, []float64{want}); err != nil {
					return nil, fmt.Errorf("in-process At differs from the merged snapshot: %w", err)
				}
				pool = append(pool, request{
					tmpl:   newRequest("GET", sys.srv.url+"/at?key="+url.QueryEscape(key)+"&"+pointQuery(p), "", false),
					ep:     "at",
					points: 1,
					check:  func(b []byte) error { return checkKeyed(b, key, want, ver) },
				})
				continue
			}
			key, want := sys.merged.Strongest(p)
			gotKey, got, ver, err := sys.ss.Strongest(p)
			if err != nil {
				return nil, err
			}
			if gotKey != key || sameBits([]float64{got}, []float64{want}) != nil {
				return nil, errors.New("in-process Strongest differs from the merged snapshot")
			}
			pool = append(pool, request{
				tmpl:   newRequest("GET", sys.srv.url+"/strongest?"+pointQuery(p), "", false),
				ep:     "strongest",
				points: 1,
				check:  func(b []byte) error { return checkKeyed(b, key, want, ver) },
			})
		}
		pools[w] = pool
	}
	return pools, nil
}

// batchPoints is the point count of one batch read.
const batchPoints = 512

// batchReadPools builds each worker's pool of 512-point batches: half
// binary POST /at, a quarter binary POST /strongest, a quarter JSON
// POST /at.
func batchReadPools(sys *readSystem, r *rand.Rand, workers, per int) ([][]request, error) {
	kp := newKeyPicker(r, sys.merged.Keys())
	vol := sys.merged.Volume()
	pools := make([][]request, workers)
	for w := range pools {
		// The mix is exact — kinds 0 and 1 binary /at, 2 JSON /at, 3
		// binary /strongest — in a seeded order, so no seed shifts the
		// proportions a closed loop cycles through.
		kinds := make([]int, per)
		for i := range kinds {
			kinds[i] = i % 4
		}
		r.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		pool := make([]request, 0, per)
		for _, kind := range kinds {
			pts := make([]geom.Vec3, batchPoints)
			for i := range pts {
				pts[i] = randPoint(r, vol)
			}
			switch kind {
			case 0, 1, 2:
				key := kp.next()
				want, err := sys.merged.AtBatch(key, pts)
				if err != nil {
					return nil, err
				}
				got, ver, err := sys.ss.AtBatch(key, pts)
				if err != nil {
					return nil, err
				}
				if err := sameBits(got, want); err != nil {
					return nil, fmt.Errorf("in-process AtBatch differs from the merged snapshot: %w", err)
				}
				if kind < 2 {
					pool = append(pool, request{
						tmpl:   newRequest("POST", sys.srv.url+"/at", remserve.WireContentType, true),
						body:   remserve.AppendBatchRequest(nil, key, pts),
						ep:     "at_batch_bin",
						points: batchPoints,
						check:  func(b []byte) error { return checkWireValues(b, want, ver) },
					})
				} else {
					pool = append(pool, request{
						tmpl:   newRequest("POST", sys.srv.url+"/at", "application/json", false),
						body:   jsonBatch(key, pts),
						ep:     "at_batch_json",
						points: batchPoints,
						check:  func(b []byte) error { return checkJSONValues(b, want, ver) },
					})
				}
			default:
				keys, want := sys.merged.StrongestBatch(pts)
				gotKeys := make([]string, len(pts))
				got := make([]float64, len(pts))
				ver, err := remserve.ShardedBackend(sys.ss).StrongestBatchInto(gotKeys, got, pts)
				if err != nil {
					return nil, err
				}
				if err := sameBits(got, want); err != nil || strings.Join(gotKeys, ",") != strings.Join(keys, ",") {
					return nil, errors.New("in-process StrongestBatch differs from the merged snapshot")
				}
				pool = append(pool, request{
					tmpl:   newRequest("POST", sys.srv.url+"/strongest", remserve.WireContentType, true),
					body:   remserve.AppendStrongestRequest(nil, pts),
					ep:     "strongest_batch_bin",
					points: batchPoints,
					check:  func(b []byte) error { return checkWireStrongest(b, keys, want, ver) },
				})
			}
		}
		pools[w] = pool
	}
	return pools, nil
}

// jsonBatch renders a JSON POST /at body.
func jsonBatch(key string, pts []geom.Vec3) []byte {
	b := append([]byte(`{"key":`), strconv.Quote(key)...)
	b = append(b, `,"points":[`...)
	for i, p := range pts {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendFloat(b, p.X, 'g', -1, 64)
		b = append(b, ',')
		b = strconv.AppendFloat(b, p.Y, 'g', -1, 64)
		b = append(b, ',')
		b = strconv.AppendFloat(b, p.Z, 'g', -1, 64)
		b = append(b, ']')
	}
	return append(b, "]}"...)
}

// closedLoop runs one worker per pool until d has passed, each sending
// its next request only once the previous answer is in and recording
// into its own tally, and returns the merged tally and the elapsed wall
// time. Each answer is checked as it arrives, inside the window: batch
// answers are too large to keep for a check after the run.
func closedLoop(ws []*worker, pools [][]request, tallies []*loadTally, d time.Duration) (*loadTally, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i := range ws {
		wk, pool, lt := ws[i], pools[i], tallies[i]
		lt.start = start
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; time.Now().Before(deadline); j++ {
				rq := &pool[j%len(pool)]
				status, lat, err := wk.do(rq, 0)
				if lt.record(rq, status, lat, err, wk.buf.Bytes()) {
					lt.check(rq, wk.buf.Bytes())
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, lt := range tallies[1:] {
		tallies[0].merge(lt)
	}
	return tallies[0], elapsed
}

// runReads is the point_reads and batch_reads workload: boot the
// deployment (several times, for set-up time), build the seeded request
// pools, warm up, then measure loadConns connections: open loops for
// point_reads, closed loops for batch_reads.
func runReads(o runOpts, batches bool) (*outcome, error) {
	sys, setup, err := bootRepeated(o.setups, func() (*readSystem, error) { return bootReads(o.t) })
	if err != nil {
		return nil, err
	}
	defer sys.close()

	r := rand.New(rand.NewSource(o.seed))
	var pools [][]request
	if batches {
		pools, err = batchReadPools(sys, r, loadConns, 64)
	} else {
		pools, err = pointReadPools(sys, r, loadConns, 4096)
	}
	if err != nil {
		return nil, err
	}
	hc := newClient(loadConns)
	defer hc.CloseIdleConnections()
	ws := make([]*worker, loadConns)
	for i := range ws {
		ws[i] = &worker{hc: hc}
	}
	// Tallies, schedules and answer logs are made up front, so the heap
	// does not grow under the program during the window. The batch
	// tallies are sized for well above the fastest rate seen on the
	// measuring host (about 2600 answers/s per worker).
	var window *openPass
	var tallies []*loadTally
	if batches {
		for range ws {
			tallies = append(tallies, newTally(int(5000*o.seconds.Seconds())))
		}
		warmTallies := make([]*loadTally, len(ws))
		for i := range warmTallies {
			warmTallies[i] = newTally(0)
		}
		lt, _ := closedLoop(ws, pools, warmTallies, warmup(o.seconds))
		if lt.wrong > 0 {
			return nil, fmt.Errorf("wrong answers during warm-up: %v", lt.notes)
		}
	} else {
		warm := newOpenPass(ws, pools, r, warmup(o.seconds))
		window = newOpenPass(ws, pools, r, o.seconds)
		lt, _, _ := warm.run()
		warm.check(lt)
		if lt.wrong > 0 {
			return nil, fmt.Errorf("wrong answers during warm-up: %v", lt.notes)
		}
	}
	runtime.GC() // every window starts from the same heap state

	var before scrape
	if o.t != nil {
		if before, err = fetchScrape(hc, sys.srv.url); err != nil {
			return nil, err
		}
		for _, w := range ws {
			w.t = o.t
		}
		o.t.reset()
	}
	rt0 := readRuntime()
	steal := startSteal(sliceLen)
	var lt *loadTally
	var late []float64
	var elapsed time.Duration
	if batches {
		lt, elapsed = closedLoop(ws, pools, tallies, o.seconds)
	} else {
		lt, late, elapsed = window.run()
	}
	rt1 := readRuntime()
	stealMarks := steal.finish()
	peakMB := peakRSSMB()
	var spans []span
	if o.t != nil {
		spans = o.t.snapshot()
	}

	out := &outcome{tally: lt, e2e: metricSet{}}
	out.e2e["setup_s"] = setup
	slices, err := queryMetrics(out.e2e, lt, elapsed, stealMarks, batches)
	if err != nil {
		return nil, err
	}
	out.report = append(out.report, slices)
	if !batches {
		out.report = append(out.report, fmt.Sprintf("open loop at %.0f/s on each of %d connections; sent late by p50 %.0f us, p90 %.0f us",
			readRate, len(ws), tailOrZero(late, 0.5), tailOrZero(late, 0.9)))
		window.check(lt)
	}
	if o.t != nil {
		for _, w := range ws {
			w.t = nil
		}
		after, err := fetchScrape(hc, sys.srv.url)
		if err != nil {
			return nil, err
		}
		sent, _ := lt.totals()
		out.layers = layerMetrics(layerInput{
			spans: spans, workers: ws,
			before: before, after: after, rt0: rt0, rt1: rt1, ops: sent,
		})
	}
	out.e2e["peak_rss_mb"] = peakMB
	return out, nil
}
