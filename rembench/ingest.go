package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/rem"
	"repro/internal/remfollow"
	"repro/internal/remobs"
	"repro/internal/remserve"
	"repro/internal/remstore"
	"repro/internal/remwal"
)

// The ingest workload boots the `remgen -ingest -serve -wal` deployment
// (bootstrap survey, remserve with POST /observe, a WAL that fsyncs
// every append) plus a remfollow replica, then sends a seeded open-loop
// schedule of small binary observation batches while one open-loop
// reader (open.go) queries the same leader. The replica syncs once per
// publish,
// called by the benchmark, so replication lag measures the program and
// not a poll timer.

const (
	// ingestRate is the writer's schedule in batches per second: below
	// the generation rate of the last batch of a run, so no backlog grows
	// and no batch is refused.
	ingestRate = 10.0
	// ingestRows is the observation count of one batch.
	ingestRows = 16
	// ingestHistory is the leader's and the replica's retained snapshot
	// history: deep enough that the replica always syncs by delta.
	ingestHistory = 64
)

// pubRec is one OnBatch call.
type pubRec struct {
	rep   core.IngestReport
	at    time.Time
	depth int
	m     *rem.Map // the published snapshot, kept to check reads after the run
}

// syncRec is one successful SyncOnce and the leader version it adopted.
type syncRec struct {
	version uint64
	at      time.Time
}

// ingestSystem is one booted ingest deployment.
type ingestSystem struct {
	dir      string
	obs      *remobs.Observer
	log      *remwal.Log
	queue    *remwal.Queue
	store    *remstore.Store
	srv      *server
	cancel   context.CancelFunc
	done     chan error
	follower *remfollow.Follower
	fclient  *http.Client
	boot     *rem.Map // the bootstrap snapshot (version 1)
	t        *tracer
	// syncSpan is the SyncOnce span in progress; the follower's requests
	// carry it to the leader's handler span.
	syncSpan atomic.Uint64

	mu        sync.Mutex
	published []pubRec
	syncs     []syncRec
	syncErrs  []string
	pubCh     chan struct{} // 1-buffered: "something new was published"
}

// bootIngest flies the mission, bootstraps and serves the leader, waits
// for the first correct answer over the socket and runs the replica's
// initial full sync.
func bootIngest(t *tracer, root string) (sys *ingestSystem, err error) {
	dir, err := os.MkdirTemp(root, "wal-")
	if err != nil {
		return nil, err
	}
	sys = &ingestSystem{dir: dir, obs: remobs.New(0), t: t, pubCh: make(chan struct{}, 1)}
	defer func() {
		if err != nil {
			sys.close()
		}
	}()
	var recs []remwal.Record
	if sys.log, recs, err = remwal.Open(remwal.Config{Dir: dir, Observer: sys.obs}); err != nil {
		return sys, err
	}
	if len(recs) != 0 {
		return sys, fmt.Errorf("fresh WAL in %s replayed %d records", dir, len(recs))
	}
	sys.queue = remwal.NewQueue(remwal.QueueConfig{Log: sys.log})
	sys.queue.SetObserver(sys.obs)
	ctx, cancel := context.WithCancel(context.Background())
	sys.cancel = cancel
	cfg := core.IngestConfig{
		Config:     core.DefaultConfig(deploySeed),
		Queue:      sys.queue,
		Context:    ctx,
		Observer:   sys.obs,
		MaxHistory: ingestHistory,
		OnBatch:    sys.onBatch,
	}
	cfg.Workers = loadConns
	served := make(chan error, 1)
	cfg.OnStore = func(st *remstore.Store) {
		sys.store = st
		srv := remserve.New(t.backend(remserve.StoreBackend(st), "remstore"), remserve.Options{
			Observer: sys.obs,
			Ingest:   remserve.IngestOptions{Queue: sys.queue},
		})
		var err error
		sys.srv, err = serve(srv, t)
		served <- err
	}
	sys.done = make(chan error, 1)
	go func() {
		_, err := core.RunIngest(cfg)
		sys.done <- err
	}()
	select {
	case err = <-served:
		if err != nil {
			return sys, err
		}
	case err = <-sys.done:
		sys.done <- err
		return sys, fmt.Errorf("ingest stopped before serving: %w", err)
	}
	var boot *remstore.Snapshot
	for boot = sys.store.Current(); boot == nil; boot = sys.store.Current() {
		select {
		case err = <-sys.done:
			sys.done <- err
			return sys, fmt.Errorf("ingest stopped before the bootstrap publish: %w", err)
		case <-time.After(100 * time.Microsecond):
		}
	}
	sys.boot = boot.Map()
	if err = firstAnswer(sys.srv.url, boot.Map(), boot.Version()); err != nil {
		return sys, err
	}
	sys.fclient = newClient(1)
	if t != nil {
		sys.fclient.Transport = parentTransport{next: sys.fclient.Transport, parent: &sys.syncSpan}
	}
	if sys.follower, err = remfollow.New(remfollow.Config{Leader: sys.srv.url, Client: sys.fclient, History: ingestHistory}); err != nil {
		return sys, err
	}
	if err = sys.syncOnce(); err != nil {
		return sys, fmt.Errorf("replica's initial sync: %w", err)
	}
	if v := sys.adopted(); v != boot.Version() {
		return sys, fmt.Errorf("replica adopted version %d, leader serves %d", v, boot.Version())
	}
	return sys, nil
}

// onBatch is the leader's OnBatch hook: it timestamps the publish,
// samples the queue depth, keeps the published map and wakes the
// replica.
func (s *ingestSystem) onBatch(rep core.IngestReport) {
	now := time.Now()
	depth := s.queue.Len()
	var m *rem.Map
	if snap := s.store.SnapshotAt(rep.Version); snap != nil {
		m = snap.Map()
	}
	s.mu.Lock()
	s.published = append(s.published, pubRec{rep: rep, at: now, depth: depth, m: m})
	s.mu.Unlock()
	select {
	case s.pubCh <- struct{}{}:
	default:
	}
}

// latest is the newest published version (the bootstrap's before any
// batch).
func (s *ingestSystem) latest() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.published); n > 0 {
		return s.published[n-1].rep.Version
	}
	return 1
}

// adopted is the leader version the replica serves.
func (s *ingestSystem) adopted() uint64 {
	v, _ := strconv.ParseUint(s.follower.SyncStats().Version, 10, 64)
	return v
}

// syncOnce runs one Follower.SyncOnce inside a "remfollow.sync" span.
func (s *ingestSystem) syncOnce() error {
	var id uint64
	var start int64
	if s.t != nil {
		id = s.t.id()
		s.syncSpan.Store(id)
		start = s.t.now()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	err := s.follower.SyncOnce(ctx)
	cancel()
	now := time.Now()
	if s.t != nil {
		s.t.add(span{ID: id, Name: "remfollow.sync", Start: start, End: s.t.now()})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		if len(s.syncErrs) < 5 {
			s.syncErrs = append(s.syncErrs, err.Error())
		}
		return err
	}
	s.syncs = append(s.syncs, syncRec{version: s.adopted(), at: now})
	return nil
}

// followLoop syncs the replica after every publish until stop closes.
func (s *ingestSystem) followLoop(stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		case <-s.pubCh:
		}
		for s.adopted() < s.latest() {
			if err := s.syncOnce(); err != nil {
				// The failure is kept for the report; the drain's
				// deadline decides whether the run survives it.
				time.Sleep(10 * time.Millisecond)
			}
		}
	}
}

// close stops the ingest loop, the server and the log and removes the
// WAL directory. Safe on a partly booted system.
func (s *ingestSystem) close() error {
	err := s.stop()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// stop stops the ingest loop (a cancellation is its clean stop), then
// the server, then the log, leaving the WAL on disk.
func (s *ingestSystem) stop() error {
	var err error
	if s.cancel != nil {
		s.cancel()
		s.cancel = nil
		if derr := <-s.done; derr != nil && !errors.Is(derr, context.Canceled) {
			err = derr
		}
	}
	if s.srv != nil {
		if serr := s.srv.close(); err == nil {
			err = serr
		}
		s.srv = nil
	}
	if s.fclient != nil {
		s.fclient.CloseIdleConnections()
	}
	if s.log != nil {
		if lerr := s.log.Close(); err == nil {
			err = lerr
		}
		s.log = nil
	}
	return err
}

// obsBatch is one scheduled write.
type obsBatch struct {
	rq   request
	due  time.Duration // since the schedule's start
	span uint64        // the batch's span id in a traced run
}

// ingestBatches draws the writer's schedule: n batches of ingestRows
// observations at uniform points, valued like a scan of the bootstrap
// map (its value plus 4 dB of noise, rounded to whole dBm), due at
// i/rate plus up to half an interval of jitter. Keys take turns in a
// seeded order, as a UAV sweep reports every AP it hears: the rows each
// key absorbs, and with them the refit cost, do not hinge on which keys
// a seed makes popular.
func ingestBatches(r *rand.Rand, n int, base string, m *rem.Map) ([]obsBatch, error) {
	keys := m.Keys()
	order := r.Perm(len(keys))
	vol := m.Volume()
	out := make([]obsBatch, n)
	for i := range out {
		key := keys[order[i%len(order)]]
		b := remwal.Batch{Key: key, Points: make([]geom.Vec3, ingestRows), Values: make([]float64, ingestRows)}
		for j := range b.Points {
			p := randPoint(r, vol)
			v, err := m.At(key, p)
			if err != nil {
				return nil, err
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = -90
			}
			b.Points[j] = p
			b.Values[j] = math.Round(v + 4*r.NormFloat64())
		}
		out[i] = obsBatch{
			rq: request{
				tmpl:   newRequest("POST", base+"/observe", remserve.WireContentType, false),
				body:   remwal.AppendBatch(nil, b),
				ep:     "observe",
				points: ingestRows,
			},
			due: time.Duration((float64(i) + 0.5*r.Float64()) / ingestRate * float64(time.Second)),
		}
	}
	return out, nil
}

// writeRec is what the writer saw of one batch.
type writeRec struct {
	due, sent, acked time.Time
	seq              uint64
	ok               bool
}

// write sends the schedule open loop on one connection: each batch goes
// at its due time, or at once when the previous answer came late, and
// its latency counts from the due time.
func write(w *worker, batches []obsBatch, start time.Time, lt *loadTally) []writeRec {
	recs := make([]writeRec, len(batches))
	for i := range batches {
		b := &batches[i]
		due := start.Add(b.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		status, _, err := w.do(&b.rq, b.span)
		acked := time.Now()
		lt.record(&b.rq, status, acked.Sub(due), err, w.buf.Bytes())
		rec := writeRec{due: due, sent: sent, acked: acked}
		if err == nil && status == http.StatusOK {
			if tok, ferr := jsonField(w.buf.Bytes(), "seq"); ferr == nil {
				rec.seq, _ = strconv.ParseUint(string(tok), 10, 64)
				rec.ok = rec.seq > 0
			}
			if !rec.ok {
				lt.wrong++
				lt.note(fmt.Sprintf("observe: ack without a sequence: %.120s", w.buf.Bytes()))
			}
		}
		recs[i] = rec
	}
	return recs
}

// checkReads checks every logged GET /at answer against Map.At of the
// leader snapshot whose version it names, counting mismatches in lt.
func (s *ingestSystem) checkReads(pool []request, log *answerLog, lt *loadTally) {
	maps := map[uint64]*rem.Map{1: s.boot}
	s.mu.Lock()
	for _, p := range s.published {
		maps[p.rep.Version] = p.m
	}
	s.mu.Unlock()
	for i := range pool {
		rq := &pool[i]
		rq.check = func(body []byte) error { return checkRead(body, rq, maps) }
	}
	log.checkAll(pool, lt)
}

// checkRead checks one GET /at answer against the snapshot that served
// it.
func checkRead(body []byte, rq *request, maps map[uint64]*rem.Map) error {
	tok, err := jsonField(body, "version")
	if err != nil {
		return err
	}
	ver, err := strconv.ParseUint(string(tok), 10, 64)
	if err != nil {
		return fmt.Errorf("version %q", tok)
	}
	m := maps[ver]
	if m == nil {
		return fmt.Errorf("served version %d was never published", ver)
	}
	want, err := m.At(rq.key, rq.point)
	if err != nil {
		return err
	}
	return checkKeyed(body, rq.key, want, ver)
}

// ingestTally is the write path's measurements.
type ingestTally struct {
	ackMS, visibleMS, lagMS, lateUS, pendingMS []float64
	walBytes, bodyBytes                        int64
	depthMax                                   int
	dirty, shared                              []float64
	deltas, syncs, deltaBytes                  uint64
	publishedAt                                []time.Time // per batch; zero if never acked
}

// tailOrZero is quantile for the per-layer table, where a layer the
// workload never reached has no samples and reads 0.
func tailOrZero(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v, err := quantile(sortedCopy(xs), p)
	if err != nil {
		return 0
	}
	return v
}

// layerMetrics adds the write-path metrics; genMS is the mean generation
// time scraped from the leader.
func (ing *ingestTally) layerMetrics(m metricSet, genMS float64) {
	m["remwal.bytes_per_body_byte"] = ratio(float64(ing.walBytes), float64(ing.bodyBytes))
	m["remwal.queue_depth_max"] = float64(ing.depthMax)
	if len(ing.pendingMS) > 0 {
		m["core.queue_wait_ms"] = mean(ing.pendingMS) - genMS
	} else {
		m["core.queue_wait_ms"] = 0
	}
	m["core.dirty_keys_per_gen"] = mean(ing.dirty)
	m["core.shared_tiles_per_gen"] = mean(ing.shared)
	m["remfollow.delta_bytes"] = ratio(float64(ing.deltaBytes), float64(ing.deltas))
	m["remfollow.delta_frac"] = ratio(float64(ing.deltas), float64(ing.syncs))
	m["loadgen.late_us_p90"] = tailOrZero(ing.lateUS, 0.9)
	m["ingest.observe_ack_p50_ms"] = tailOrZero(ing.ackMS, 0.5)
	m["ingest.observe_ack_p90_ms"] = tailOrZero(ing.ackMS, 0.9)
	m["ingest.visible_p50_ms"] = tailOrZero(ing.visibleMS, 0.5)
	m["ingest.visible_p90_ms"] = tailOrZero(ing.visibleMS, 0.9)
	m["ingest.replica_lag_p50_ms"] = tailOrZero(ing.lagMS, 0.5)
}

// runIngest is the ingest_live workload.
func runIngest(o runOpts) (*outcome, error) {
	root := filepath.Join(workDir, "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	sys, setup, err := bootRepeated(o.setups, func() (*ingestSystem, error) { return bootIngest(o.t, root) })
	if err != nil {
		return nil, err
	}
	defer sys.close()

	r := rand.New(rand.NewSource(o.seed))
	boot := sys.boot
	n := int(math.Ceil(ingestRate * o.seconds.Seconds()))
	if min := minSamples(0.9); n < min {
		n = min
	}
	batches, err := ingestBatches(r, n, sys.srv.url, boot)
	if err != nil {
		return nil, err
	}
	pool := ingestReadPool(r, boot, sys.srv.url, 4096)
	// The reader's schedule runs ten seconds past the writer's, so it
	// lasts until the writer is done.
	readSpan := batches[len(batches)-1].due + 10*time.Second
	readTimes := poissonDue(r, readRate, readSpan)

	reader := &worker{hc: newClient(1), t: o.t}
	writer := &worker{hc: newClient(1), t: o.t}
	defer reader.hc.CloseIdleConnections()
	defer writer.hc.CloseIdleConnections()
	var before scrape
	if o.t != nil {
		if before, err = fetchScrape(writer.hc, sys.srv.url); err != nil {
			return nil, err
		}
		o.t.reset()
		for i := range batches {
			batches[i].span = o.t.id()
		}
	}

	// Tallies and the answer log are sized up front, so the heap does not
	// grow under the program during the window.
	readLT, writeLT := newTally(len(readTimes)), newTally(n)
	answers := newAnswerLog(len(readTimes))
	var readLate []float64
	runtime.GC() // every window starts from the same heap state
	stopFollow := make(chan struct{})
	followDone := make(chan struct{})
	go func() {
		defer close(followDone)
		sys.followLoop(stopFollow)
	}()
	stopRead := make(chan struct{})
	readDone := make(chan struct{})
	rt0 := readRuntime()
	steal := startSteal(sliceLen)
	start := time.Now()
	readLT.start, writeLT.start = start, start
	go func() {
		defer close(readDone)
		readLate = openLoop(reader, pool, readTimes, start, stopRead, readLT, answers)
	}()
	writes := write(writer, batches, start, writeLT)
	close(stopRead)
	<-readDone
	elapsed := time.Since(start)
	if elapsed > readSpan {
		elapsed = readSpan
	}
	stealMarks := steal.finish()

	// Drain: every acked batch published and replicated.
	acked := 0
	for _, w := range writes {
		if w.ok {
			acked++
		}
	}
	drainErr := sys.waitFor(uint64(acked)+1, 60*time.Second)
	rt1 := readRuntime()
	peakMB := peakRSSMB()
	close(stopFollow)
	<-followDone
	if drainErr != nil {
		return nil, drainErr
	}
	var spans []span
	var after scrape
	if o.t != nil {
		spans = o.t.snapshot()
		if after, err = fetchScrape(writer.hc, sys.srv.url); err != nil {
			return nil, err
		}
	}

	out := &outcome{tally: readLT, e2e: metricSet{}}
	out.e2e["setup_s"] = setup
	slices, err := queryMetrics(out.e2e, readLT, elapsed, stealMarks, false)
	if err != nil {
		return nil, err
	}
	out.report = append(out.report, slices, fmt.Sprintf(
		"reader: open loop at %.0f/s, %d answers checked; sent late by p50 %.0f us, p90 %.0f us",
		readRate, len(answers.recs), tailOrZero(readLate, 0.5), tailOrZero(readLate, 0.9)))
	sys.checkReads(pool, answers, readLT)

	ing, err := sys.verify(batches, writes)
	if err != nil {
		return nil, err
	}
	out.tally.merge(writeLT)
	if o.t != nil {
		for i, w := range writes {
			if p := ing.publishedAt[i]; !p.IsZero() {
				spans = append(spans, span{ID: batches[i].span, Name: "ingest.batch", Start: o.t.at(w.due), End: o.t.at(p)})
			}
		}
		sent, _ := out.tally.totals()
		out.layers = layerMetrics(layerInput{
			spans: spans, workers: []*worker{reader, writer},
			before: before, after: after, rt0: rt0, rt1: rt1, ops: sent, ing: ing,
		})
	}
	out.report = append(out.report, fmt.Sprintf(
		"ingest: %d batches of %d rows at %.0f/s; ack p50 %.2f ms p90 %.2f ms; visible p50 %.2f ms p90 %.2f ms; replica lag p50 %.2f ms",
		len(batches), ingestRows, ingestRate,
		tailOrZero(ing.ackMS, 0.5), tailOrZero(ing.ackMS, 0.9),
		tailOrZero(ing.visibleMS, 0.5), tailOrZero(ing.visibleMS, 0.9), tailOrZero(ing.lagMS, 0.5)))
	out.e2e["peak_rss_mb"] = peakMB
	return out, nil
}

// waitFor blocks until the leader has published version and the replica
// has adopted it.
func (s *ingestSystem) waitFor(version uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for s.latest() < version || s.adopted() < version {
		if time.Now().After(deadline) {
			leader, replica := s.latest(), s.adopted()
			s.mu.Lock()
			defer s.mu.Unlock()
			return fmt.Errorf("version %d not published and replicated within %s (leader %d, replica %d; sync errors %v)",
				version, timeout, leader, replica, s.syncErrs)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// verify runs the ingest workload's output checks and derives the write
// path's measurements:
//   - every acked seq was published exactly once, in order;
//   - the replica's final snapshot bytes equal the leader's;
//   - reopening the WAL replays exactly the acked batches.
//
// A failed check is an error: the run reports no figures.
func (s *ingestSystem) verify(batches []obsBatch, writes []writeRec) (*ingestTally, error) {
	s.mu.Lock()
	published := append([]pubRec(nil), s.published...)
	syncs := append([]syncRec(nil), s.syncs...)
	s.mu.Unlock()

	ing := &ingestTally{publishedAt: make([]time.Time, len(writes))}
	bySeq := map[uint64]int{} // acked seq → batch index
	for i, w := range writes {
		if !w.ok {
			continue
		}
		if _, dup := bySeq[w.seq]; dup {
			return nil, fmt.Errorf("seq %d acked twice", w.seq)
		}
		bySeq[w.seq] = i
		ing.ackMS = append(ing.ackMS, ms(w.acked.Sub(w.due)))
		ing.lateUS = append(ing.lateUS, float64(w.sent.Sub(w.due))/1e3)
		ing.bodyBytes += int64(len(batches[i].rq.body))
	}
	if len(published) != len(bySeq) {
		return nil, fmt.Errorf("%d batches acked, %d published", len(bySeq), len(published))
	}
	si := 0
	for k, p := range published {
		seq := uint64(k + 1)
		i, ok := bySeq[seq]
		if p.rep.Seq != seq || !ok || p.rep.Replayed || p.rep.Rows != ingestRows {
			return nil, fmt.Errorf("publish %d is %+v, want acked seq %d live with its rows", k, p.rep, seq)
		}
		w := writes[i]
		ing.publishedAt[i] = p.at
		ing.visibleMS = append(ing.visibleMS, ms(p.at.Sub(w.due)))
		ing.pendingMS = append(ing.pendingMS, ms(p.at.Sub(w.acked)))
		ing.dirty = append(ing.dirty, float64(p.rep.DirtyKeys))
		ing.shared = append(ing.shared, float64(p.rep.SharedTiles))
		if p.depth > ing.depthMax {
			ing.depthMax = p.depth
		}
		for si < len(syncs) && syncs[si].version < p.rep.Version {
			si++
		}
		if si == len(syncs) {
			return nil, fmt.Errorf("version %d was never replicated", p.rep.Version)
		}
		ing.lagMS = append(ing.lagMS, ms(syncs[si].at.Sub(w.due)))
	}

	leader, replica := s.store.Current(), s.follower.Store().Current()
	var lb, rb bytes.Buffer
	if _, err := leader.Map().WriteTo(&lb); err != nil {
		return nil, err
	}
	if _, err := replica.Map().WriteTo(&rb); err != nil {
		return nil, err
	}
	if !bytes.Equal(lb.Bytes(), rb.Bytes()) {
		return nil, fmt.Errorf("replica snapshot (%d bytes) differs from the leader's (%d bytes)", rb.Len(), lb.Len())
	}
	st := s.follower.SyncStats()
	ing.deltas, ing.syncs, ing.deltaBytes = st.Deltas, st.Syncs, st.DeltaBytes

	if err := s.stop(); err != nil {
		return nil, fmt.Errorf("stopping the ingest deployment: %w", err)
	}
	walBytes, err := dirBytes(s.dir)
	if err != nil {
		return nil, err
	}
	ing.walBytes = walBytes
	l, recs, err := remwal.Open(remwal.Config{Dir: s.dir})
	if err != nil {
		return nil, fmt.Errorf("reopening the WAL: %w", err)
	}
	if err := l.Close(); err != nil {
		return nil, err
	}
	if len(recs) != len(bySeq) {
		return nil, fmt.Errorf("WAL replays %d records, %d batches were acked", len(recs), len(bySeq))
	}
	for _, rec := range recs {
		i, ok := bySeq[rec.Seq]
		if !ok || !bytes.Equal(rec.Payload, batches[i].rq.body) {
			return nil, fmt.Errorf("WAL record %d is not the acked batch", rec.Seq)
		}
	}
	return ing, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// dirBytes sums the sizes of the files in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

// ingestReadPool is the reader's pool: GET /at with Zipf-skewed keys at
// uniform points. Answers are checked after the run, against the
// version that served each.
func ingestReadPool(r *rand.Rand, m *rem.Map, base string, n int) []request {
	kp := newKeyPicker(r, m.Keys())
	pool := make([]request, n)
	for i := range pool {
		key, p := kp.next(), randPoint(r, m.Volume())
		pool[i] = request{
			tmpl:   newRequest("GET", base+"/at?key="+url.QueryEscape(key)+"&"+pointQuery(p), "", false),
			ep:     "at",
			points: 1,
			key:    key,
			point:  p,
		}
	}
	return pool
}
