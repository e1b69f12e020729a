// Command remgen runs the complete toolchain of the paper end to end:
// simulate the two-UAV survey, preprocess the dataset, train and compare the
// Figure 8 estimator suite, build the fine-grained 3-D REM from the winner,
// and export it as CSV.
//
// With -stream, remgen runs the live-serving pipeline instead: the
// mission's samples are consumed in windows, each window incrementally
// refits the estimator and publishes a copy-on-write REM snapshot into a
// concurrent store, and the per-window delta (dirty keys, shared tiles)
// is reported. The final snapshot is exported.
//
// With -serve, the streamed store is additionally fronted by the
// remserve HTTP subsystem from the moment the stream starts: clients
// query /at, /strongest, /stats and download /snapshot while windows
// keep publishing underneath, and after the stream completes remgen
// keeps serving the final generation until interrupted. SIGINT/SIGTERM
// shut down gracefully: the stream stops between windows and the server
// drains in-flight queries.
//
// Usage:
//
//	remgen -o rem.csv
//	remgen -seed 7 -res 20x16x10 -extended
//	remgen -dataset stored.csv -o rem.csv   # re-analyse a stored mission
//	remgen -stream -window 400 -o rem.csv   # windowed incremental serving
//	remgen -stream -shards 4 -o rem.csv     # sharded stores, per-shard rebuilds
//	remgen -stream -shards 4 -serve 127.0.0.1:8080   # HTTP query front
//	remgen -stream -serve 127.0.0.1:8080 -rate 50    # per-client rate limit
//	remgen -stream -snapshot rem.remt       # binary codec export (rem.ReadFrom)
//
// With -query, remgen is instead a batch query client against a running
// -serve instance: it POSTs the points to /at over the JSON or the
// binary wire (-wire) and prints one value per line — the output is
// identical for both wires (rule 8 over the wire), which is exactly
// what the CI smoke diffs:
//
//	remgen -query http://127.0.0.1:8080 -key aa:.. -points "1,2,3;4,5,6" -wire binary
//
// With -mode strongest, the client POSTs to /strongest instead: no key,
// one "key value" line per point (the best server at that point) —
// again identical across both wires:
//
//	remgen -query http://127.0.0.1:8080 -mode strongest -points "1,2,3;4,5,6"
//
// With -ingest, remgen is a live ingestion server: it bootstraps the
// estimator on the mission's survey, serves it on -serve, and accepts
// observation batches on POST /observe (JSON or the binary "REMO"
// wire) — each accepted batch incrementally refits the estimator and
// publishes a new snapshot. With -wal DIR every batch is persisted to
// a write-ahead log before it is acknowledged, and a restart with the
// same -wal replays the log into byte-identical snapshots (determinism
// contract rule 10):
//
//	remgen -ingest -serve 127.0.0.1:8080 -wal /var/lib/rem/wal -ingest-token s3cret
//
// With -follow, remgen is a replica: it polls a running -serve leader,
// pulls tile deltas (full snapshots only on first contact or after
// corruption), and serves the replicated REM on -serve through leader
// outages — stale reads keep working, /healthz flips to 503 past the
// staleness bound, and the follower resyncs automatically when the
// leader returns:
//
//	remgen -follow http://127.0.0.1:8080 -serve 127.0.0.1:8081 -poll 500ms -staleness 10s
//
// Each mode reads only its own flags: a flag the selected mode would
// ignore is an error, and -h names the modes that read each flag.
//
// Every server mode takes -metrics (instrument the stack and expose
// Prometheus text on GET /metrics of -serve), -pprof ADDR (a
// net/http/pprof side listener) and -events N (a bounded in-memory ring
// of generation lifecycle events — publishes, WAL appends, follower
// syncs — dumped to stderr on SIGUSR1 and at exit):
//
//	remgen -ingest -serve 127.0.0.1:8080 -wal wal/ -metrics -pprof 127.0.0.1:6060 -events 256
//	curl -s http://127.0.0.1:8080/metrics | grep rem_wal_fsync_seconds
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	_ "net/http/pprof" // -pprof side listener (DefaultServeMux)
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/rem"
	"repro/internal/remfollow"
	"repro/internal/remobs"
	"repro/internal/remserve"
	"repro/internal/remshard"
	"repro/internal/remstore"
	"repro/internal/remwal"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "remgen:", err)
		os.Exit(1)
	}
}

// options holds every flag value (newFlagSet binds them).
type options struct {
	seed                       uint64
	workers                    int
	out, res, dataCSV, snapOut string
	extended                   bool
	dark, slice                float64

	stream                  bool
	window, history, shards int
	serve                   string
	rate                    float64

	ingest            bool
	walDir, ingestTok string
	ingestCap         int

	follow          string
	poll, staleness time.Duration

	query, queryKey, points, wire, queryMode string

	metrics bool
	pprof   string
	events  int
}

// Flag groups the mode table shares.
const (
	pipelineFlags = "seed workers o res dataset dark slice snapshot"
	obsFlags      = "metrics pprof events"
)

// modes lists every mode with the flags it reads, its own selecting
// flag included. The first mode whose selecting flag is on the command
// line runs; the nameless last row is the default batch run. parseArgs
// rejects any flag the selected mode does not read, and each flag's
// help text names the modes that read it.
var modes = []struct {
	name  string // selecting flag; "" for the batch run
	flags string // space-separated flag names
}{
	{"query", "query key points wire mode"},
	{"follow", "follow serve poll staleness history " + obsFlags},
	{"ingest", "ingest serve rate history wal ingest-token ingest-queue " + pipelineFlags + " " + obsFlags},
	{"stream", "stream serve rate history window shards " + pipelineFlags + " " + obsFlags},
	{"", "extended pprof " + pipelineFlags},
}

// isMode reports whether flag selects a mode.
func isMode(flag string) bool {
	for _, m := range modes {
		if m.name == flag {
			return true
		}
	}
	return false
}

// modeName renders a mode for messages and help text.
func modeName(name string) string {
	if name == "" {
		return "the batch run"
	}
	return "-" + name
}

// readers names the modes that read flag, as "-stream, -ingest or
// -follow".
func readers(flag string) string {
	var names []string
	for _, m := range modes {
		for _, f := range strings.Fields(m.flags) {
			if f == flag {
				names = append(names, modeName(m.name))
			}
		}
	}
	if len(names) < 2 {
		return strings.Join(names, "")
	}
	return strings.Join(names[:len(names)-1], ", ") + " or " + names[len(names)-1]
}

// newFlagSet declares every flag into o, each help text prefixed with
// the modes that read the flag.
func newFlagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	fs.Uint64Var(&o.seed, "seed", 1, "master seed for the simulated world")
	fs.IntVar(&o.workers, "workers", runtime.GOMAXPROCS(0), "worker-pool size for training, evaluation and REM rasterisation (results are identical for any value)")
	fs.StringVar(&o.out, "o", "-", "REM CSV output path ('-' for stdout)")
	fs.StringVar(&o.res, "res", "12x10x6", "REM grid resolution as NXxNYxNZ")
	fs.BoolVar(&o.extended, "extended", false, "include IDW/kriging estimators")
	fs.StringVar(&o.dataCSV, "dataset", "", "optional stored dataset CSV to re-analyse instead of flying")
	fs.Float64Var(&o.dark, "dark", -85, "dark-region threshold in dBm for the coverage summary")
	fs.Float64Var(&o.slice, "slice", -1, "if ≥ 0, render an ASCII heatmap of the strongest AP at this height (m) to stderr")
	fs.BoolVar(&o.stream, "stream", false, "run the windowed incremental pipeline: one published REM snapshot per sample window")
	fs.IntVar(&o.window, "window", 0, "preprocessed rows per window (≤0 splits the mission into 4 windows)")
	fs.IntVar(&o.history, "history", 0, "retained snapshot history (≤0 uses the store default)")
	fs.IntVar(&o.shards, "shards", 0, "partition the vocabulary across N independent stores (hash-by-MAC routing); only the shards a window dirties rebuild and publish")
	fs.StringVar(&o.serve, "serve", "", "serve over HTTP on this address (e.g. 127.0.0.1:8080); SIGINT/SIGTERM stop cleanly; -ingest and -follow require it")
	fs.Float64Var(&o.rate, "rate", 0, "per-client request budget of the -serve front in requests/second (token bucket keyed by client IP; 0 disables)")
	fs.StringVar(&o.snapOut, "snapshot", "", "also export the final REM in the binary snapshot codec (rem.ReadFrom loads it) to this path")
	fs.BoolVar(&o.ingest, "ingest", false, "live ingestion server: bootstrap on the survey, then accept observation batches on POST /observe of -serve, one published snapshot per batch")
	fs.StringVar(&o.walDir, "wal", "", "persist accepted batches to a write-ahead log in this directory; a restart replays it into identical snapshots")
	fs.StringVar(&o.ingestTok, "ingest-token", "", "require 'Authorization: Bearer TOKEN' on POST /observe")
	fs.IntVar(&o.ingestCap, "ingest-queue", 0, "the bounded ingest-queue capacity; a full queue answers 429 + Retry-After (≤0 uses the default)")
	fs.StringVar(&o.follow, "follow", "", "follower mode: base URL of a running -serve leader to replicate (delta sync); serve the replica on -serve, stop with SIGINT/SIGTERM")
	fs.DurationVar(&o.poll, "poll", 0, "the leader poll interval (0 uses the follower default)")
	fs.DurationVar(&o.staleness, "staleness", 0, "how old the last successful sync may get before /healthz reports 503 stale (0 uses the follower default)")
	fs.StringVar(&o.query, "query", "", "query client mode: base URL of a running -serve instance (e.g. http://127.0.0.1:8080); POSTs -points to /at (or /strongest, see -mode) and prints one line per point")
	fs.StringVar(&o.queryKey, "key", "", "the source key to query (-mode at)")
	fs.StringVar(&o.points, "points", "", "the batch points as 'x,y,z;x,y,z;…' (z may be omitted)")
	fs.StringVar(&o.wire, "wire", "json", "the wire format: json or binary (the printed lines are identical)")
	fs.StringVar(&o.queryMode, "mode", "at", "the endpoint: 'at' (one key, one value per line) or 'strongest' (best server, 'key value' per line)")
	fs.BoolVar(&o.metrics, "metrics", false, "instrument the pipeline and expose Prometheus text on GET /metrics of -serve")
	fs.StringVar(&o.pprof, "pprof", "", "serve net/http/pprof on a side listener at this address (e.g. 127.0.0.1:6060)")
	fs.IntVar(&o.events, "events", 0, "capacity of the generation event ring (also on with -metrics), dumped to stderr on SIGUSR1 and at exit (≤0 uses the default)")
	fs.VisitAll(func(f *flag.Flag) {
		if !isMode(f.Name) {
			f.Usage = "with " + readers(f.Name) + ": " + f.Usage
		}
	})
	return fs
}

// parseArgs parses the command line into options and returns the
// selected mode's name, refusing any flag that mode would ignore.
func parseArgs(args []string) (*options, string, error) {
	o := new(options)
	fs := newFlagSet(o)
	if err := fs.Parse(args); err != nil {
		return nil, "", err
	}

	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	mode := modes[len(modes)-1]
	for _, m := range modes {
		if set[m.name] {
			mode = m
			break
		}
	}
	reads := map[string]bool{}
	for _, f := range strings.Fields(mode.flags) {
		reads[f] = true
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		switch {
		case err != nil || reads[f.Name]:
		case isMode(f.Name):
			err = fmt.Errorf("-%s and -%s are exclusive modes", mode.name, f.Name)
		default:
			err = fmt.Errorf("-%s has no effect with %s (it is read with %s)", f.Name, modeName(mode.name), readers(f.Name))
		}
	})
	// Two flags a mode reads only in combination with another.
	switch {
	case err != nil:
	case mode.name == "stream" && set["rate"] && o.serve == "":
		err = errors.New("-rate has no effect with -stream unless -serve is set")
	case mode.name == "query" && set["key"] && o.queryMode == "strongest":
		err = errors.New("-key has no effect with -query -mode strongest")
	}
	return o, mode.name, err
}

func run(args []string) error {
	o, mode, err := parseArgs(args)
	if err != nil {
		return err
	}
	if mode == "query" {
		return runQuery(os.Stdout, o.query, o.queryMode, o.queryKey, o.points, o.wire)
	}
	obs, obsDone, err := setupObservability(o.metrics, o.events, o.pprof)
	if err != nil {
		return err
	}
	defer obsDone()
	if mode == "follow" {
		return runFollow(o, obs)
	}

	cfg := core.DefaultConfig(o.seed)
	cfg.Workers = o.workers
	var nx, ny, nz int
	if _, err := fmt.Sscanf(o.res, "%dx%dx%d", &nx, &ny, &nz); err != nil {
		return fmt.Errorf("bad -res %q: %w", o.res, err)
	}
	cfg.REMResolution = [3]int{nx, ny, nz}
	if o.extended {
		cfg.Estimators = core.ExtendedEstimators(o.seed)
	}

	var stored *dataset.Dataset
	if o.dataCSV != "" {
		f, err := os.Open(o.dataCSV)
		if err != nil {
			return err
		}
		data, rerr := dataset.ReadCSV(f)
		if cerr := f.Close(); cerr != nil && rerr == nil {
			rerr = cerr
		}
		if rerr != nil {
			return rerr
		}
		stored = data
	}

	switch mode {
	case "ingest":
		return runIngest(cfg, stored, o, obs)
	case "stream":
		return runStream(cfg, stored, o, obs)
	}

	var result *core.Result
	if stored != nil {
		result, err = core.RunWithDataset(cfg, stored, nil)
	} else {
		result, err = core.Run(cfg)
	}
	if err != nil {
		return err
	}

	fmt.Fprintf(os.Stderr, "dataset: %d samples (%d retained after preprocessing)\n",
		result.Data.Len(), len(result.Pre.Rows))
	fmt.Fprintln(os.Stderr, "estimator comparison (Figure 8):")
	for i, s := range result.Scores {
		marker := ""
		if i == result.Best {
			marker = "  ← best"
		}
		fmt.Fprintf(os.Stderr, "  %-30s RMSE %.4f dB  MAE %.4f dB%s\n", s.Name, s.RMSE, s.MAE, marker)
	}

	return exportMap(result.REM, o)
}

// setupObservability builds the optional side-kit shared by every
// server mode: the Observer (-metrics / -events) handed down the
// pipeline, a net/http/pprof listener (-pprof), and the event-ring
// dump — on SIGUSR1 while running, and once more through the returned
// cleanup at exit.
func setupObservability(metrics bool, events int, pprofAddr string) (*remobs.Observer, func(), error) {
	var obs *remobs.Observer
	if metrics || events != 0 {
		obs = remobs.New(events)
	}
	cleanup := func() {}
	if obs != nil {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGUSR1)
		go func() {
			for range sig {
				fmt.Fprintln(os.Stderr, "remgen: event ring (SIGUSR1):")
				obs.Events.Dump(os.Stderr)
			}
		}()
		cleanup = func() {
			signal.Stop(sig)
			if obs.Events.Len() > 0 {
				fmt.Fprintln(os.Stderr, "remgen: event ring at exit:")
				obs.Events.Dump(os.Stderr)
			}
		}
	}
	if pprofAddr != "" {
		l, err := net.Listen("tcp", pprofAddr)
		if err != nil {
			cleanup()
			return nil, nil, fmt.Errorf("pprof listener: %w", err)
		}
		fmt.Fprintf(os.Stderr, "pprof on http://%s/debug/pprof/\n", l.Addr())
		// net/http/pprof registered its handlers on DefaultServeMux at
		// import; the side listener serves nothing else.
		go func() { _ = http.Serve(l, nil) }()
		prev := cleanup
		cleanup = func() { l.Close(); prev() }
	}
	return obs, cleanup, nil
}

// runQuery is the -query client: one batch POST of the points to /at
// (mode "at", one key) or /strongest (mode "strongest", best server per
// point) of a running -serve instance, over the JSON or the binary
// wire. It prints one line per point to w — the value, or "key value"
// for strongest, each value as a shortest-round-trip decimal and "null"
// when non-finite — and both wires print the same lines, so the CI
// smoke can diff them byte for byte (rule 8 over the wire). The serving
// snapshot version goes to stderr.
func runQuery(w io.Writer, base, mode, key, pointsSpec, wire string) error {
	switch mode {
	case "at":
		if key == "" || pointsSpec == "" {
			return errors.New("-query needs -key and -points")
		}
	case "strongest":
		if pointsSpec == "" {
			return errors.New("-query -mode strongest needs -points")
		}
		key = "" // /strongest takes no key
	default:
		return fmt.Errorf("unknown -mode %q (want at or strongest)", mode)
	}
	pts, err := parsePoints(pointsSpec)
	if err != nil {
		return err
	}
	gpts := make([]geom.Vec3, len(pts))
	for i, p := range pts {
		gpts[i] = geom.Vec3{X: p[0], Y: p[1], Z: p[2]}
	}

	var body []byte
	ct := "application/json"
	switch wire {
	case "json":
		body, err = json.Marshal(struct {
			Key    string       `json:"key,omitempty"`
			Points [][3]float64 `json:"points"`
		}{key, pts})
		if err != nil {
			return err
		}
	case "binary":
		ct = remserve.WireContentType
		if mode == "at" {
			body = remserve.AppendBatchRequest(nil, key, gpts)
		} else {
			body = remserve.AppendStrongestRequest(nil, gpts)
		}
	default:
		return fmt.Errorf("unknown -wire %q (want json or binary)", wire)
	}
	req, err := http.NewRequest(http.MethodPost, strings.TrimRight(base, "/")+"/"+mode, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", ct)
	if wire == "binary" {
		req.Header.Set("Accept", remserve.WireContentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /%s: %s: %s", mode, resp.Status, strings.TrimSpace(string(raw)))
	}

	var keys []string
	var vals []float64
	var version uint64
	switch {
	case wire == "json":
		var out struct {
			Keys    []string   `json:"keys"`
			Values  []*float64 `json:"values"`
			Version uint64     `json:"version"`
		}
		if err := json.Unmarshal(raw, &out); err != nil {
			return err
		}
		keys, version = out.Keys, out.Version
		vals = make([]float64, len(out.Values))
		for i, v := range out.Values {
			if v == nil {
				vals[i] = math.NaN() // prints as "null", like the JSON wire sent it
			} else {
				vals[i] = *v
			}
		}
	case mode == "at":
		vals, version, err = remserve.DecodeBatchResponse(raw)
	default:
		keys, vals, version, err = remserve.DecodeStrongestResponse(raw)
	}
	if err != nil {
		return err
	}
	if mode == "strongest" && len(keys) != len(vals) {
		return fmt.Errorf("response has %d keys for %d values", len(keys), len(vals))
	}

	fmt.Fprintf(os.Stderr, "version %d (%s wire, %d points)\n", version, wire, len(vals))
	for i, v := range vals {
		if mode == "strongest" {
			fmt.Fprintf(w, "%s ", keys[i])
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintln(w, "null")
		} else {
			fmt.Fprintln(w, strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	return nil
}

// serveFront is the listen → serve → drain lifecycle every server mode
// shares. work runs under a context that SIGINT/SIGTERM cancel and
// hands bind the server to expose once there is a store to serve; bind
// listens on addr and serves in the background. A bind failure cancels
// work and is returned as "starting HTTP front: …"; a listener that
// dies cancels work too and its error is returned. When work returns
// without error the front keeps serving until a signal. Either way it
// then drains in-flight requests for up to 5 s before returning, so a
// caller's own shutdown steps run after the last response.
func serveFront(addr, what string, work func(ctx context.Context, bind func(*remserve.Server)) error) error {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	var srv *remserve.Server
	frontErr := make(chan error, 1) // the one bind failure or Serve result
	bind := func(s *remserve.Server) {
		l, err := net.Listen("tcp", addr)
		if err != nil {
			frontErr <- fmt.Errorf("starting HTTP front: %w", err)
			cancel()
			return
		}
		srv = s
		fmt.Fprintf(os.Stderr, "serving %s on http://%s\n", what, l.Addr())
		go func() {
			err := s.Serve(l)
			if err == nil {
				err = errors.New("HTTP server stopped unexpectedly")
			}
			frontErr <- err
			cancel()
		}()
	}

	err := work(ctx, bind)
	if err == nil && ctx.Err() == nil {
		fmt.Fprintln(os.Stderr, "remgen: serving until interrupted (Ctrl-C)")
		<-ctx.Done()
	}
	if errors.Is(err, context.Canceled) && ctx.Err() != nil {
		err = nil // stopped by a signal or by the front itself
	}
	select {
	case ferr := <-frontErr:
		if err == nil {
			err = ferr
		} else {
			err = fmt.Errorf("%w (HTTP front: %v)", err, ferr)
		}
	default:
		if err == nil {
			fmt.Fprintln(os.Stderr, "remgen: interrupted; draining queries")
		}
	}
	if srv == nil {
		return err
	}
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if serr := srv.Shutdown(sctx); err == nil {
		err = serr
	}
	return err
}

// runFollow is the -follow replica: a remfollow.Follower polling the
// leader for tile deltas and serving the replicated store on -serve
// until SIGINT/SIGTERM. The sync loop is deliberately unkillable by
// leader failures — it backs off, resyncs, and keeps serving the last
// good generation throughout.
func runFollow(o *options, obs *remobs.Observer) error {
	if o.serve == "" {
		return errors.New("-follow needs -serve ADDR to expose the replica")
	}
	f, err := remfollow.New(remfollow.Config{
		Leader:       o.follow,
		Poll:         o.poll,
		MaxStaleness: o.staleness,
		History:      o.history,
		Observer:     obs,
	})
	if err != nil {
		return err
	}
	if err := serveFront(o.serve, "the replica of "+o.follow, func(ctx context.Context, bind func(*remserve.Server)) error {
		bind(f.Server)
		return f.Run(ctx)
	}); err != nil {
		return err
	}
	s := f.SyncStats()
	fmt.Fprintf(os.Stderr, "replica: version %s, %d syncs (%d deltas, %d fulls, %d unchanged), %d failures, %d resyncs\n",
		s.Version, s.Syncs, s.Deltas, s.Fulls, s.NotModified, s.Failures, s.Resyncs)
	return nil
}

// parsePoints parses the -points spec: semicolon-separated triples of
// comma-separated coordinates, z optional ("1,2;3,4,5").
func parsePoints(spec string) ([][3]float64, error) {
	var pts [][3]float64
	for _, group := range strings.Split(spec, ";") {
		group = strings.TrimSpace(group)
		if group == "" {
			continue
		}
		comps := strings.Split(group, ",")
		if len(comps) != 2 && len(comps) != 3 {
			return nil, fmt.Errorf("bad point %q: want x,y or x,y,z", group)
		}
		var p [3]float64
		for i, c := range comps {
			v, err := strconv.ParseFloat(strings.TrimSpace(c), 64)
			if err != nil {
				return nil, fmt.Errorf("bad point %q: %w", group, err)
			}
			p[i] = v
		}
		pts = append(pts, p)
	}
	if len(pts) == 0 {
		return nil, errors.New("-points is empty")
	}
	return pts, nil
}

// exportMap writes the REM summary, coverage figures and the optional
// slice heatmap to stderr, then the -snapshot and -o exports — shared by
// the batch, streaming and ingestion paths so their output cannot drift
// apart.
func exportMap(m *rem.Map, o *options) error {
	centre := geom.PaperScanVolume().Center()
	bestKey, bestRSS := m.Strongest(centre)
	fmt.Fprintf(os.Stderr, "REM: %d sources over %v; strongest at centre: %s (%.1f dBm)\n",
		len(m.Keys()), m.Volume().Size(), bestKey, bestRSS)
	fmt.Fprintf(os.Stderr, "coverage ≥ %.0f dBm over %.1f%% of the volume (%d dark cells)\n",
		o.dark, 100*m.CoverageFraction(o.dark), len(m.DarkRegions(o.dark)))
	if o.slice >= 0 {
		s, err := m.SliceAt(bestKey, o.slice, 60, 24)
		if err != nil {
			return err
		}
		if err := s.Render(os.Stderr); err != nil {
			return err
		}
	}
	if err := writeSnapshotOut(m, o.snapOut); err != nil {
		return err
	}
	return writeCSVOut(m, o.out)
}

// runStream drives the windowed incremental pipeline — monolithic, or
// sharded with -shards — and exports the final snapshot (for a sharded
// store, the merged monolithic view, byte-identical to what the
// monolithic stream would serve). With -serve the store is fronted by
// the remserve HTTP subsystem from the first window on; the final
// generation keeps serving after the stream until SIGINT/SIGTERM, which
// also cancels a still-running stream between windows.
func runStream(base core.Config, stored *dataset.Dataset, o *options, obs *remobs.Observer) error {
	cfg := core.StreamConfig{
		Config:     base,
		WindowRows: o.window,
		MaxHistory: o.history,
		Observer:   obs,
		Shards:     o.shards,
		OnWindow: func(rep core.WindowReport) {
			fmt.Fprintf(os.Stderr, "window %d: +%d rows (%d total) → v%d: %d keys dirty across %d/%d shard(s), %d tiles shared\n",
				rep.Window, rep.NewRows, rep.TotalRows, rep.Version, rep.DirtyKeys, rep.Shards, max(o.shards, 1), rep.SharedTiles)
		},
	}
	stream := func() error {
		var res *core.StreamResult
		var err error
		if stored != nil {
			res, err = core.RunStreamWithDataset(cfg, stored, nil)
		} else {
			res, err = core.RunStream(cfg)
		}
		if err != nil {
			return err
		}
		return reportStream(res, o)
	}
	if o.serve == "" {
		return stream()
	}
	return serveFront(o.serve, "REM queries", func(ctx context.Context, bind func(*remserve.Server)) error {
		cfg.Context = ctx
		cfg.OnStore = func(st *remstore.Store, ss *remshard.ShardedStore) {
			sopts := remserve.Options{RateLimit: remserve.RateLimit{RPS: o.rate}, Observer: obs}
			if ss != nil {
				bind(remserve.New(remserve.ShardedBackend(ss), sopts))
			} else {
				bind(remserve.New(remserve.StoreBackend(st), sopts))
			}
		}
		return stream()
	})
}

// runIngest drives the live ingestion server: open (and replay) the
// WAL, bootstrap the estimator on the survey, front the store with
// remserve — POST /observe enabled — and publish one snapshot per
// accepted batch until SIGINT/SIGTERM. Shutdown is ordered for
// durability: the HTTP edge drains first (no more acks), then the WAL
// segment is fsynced and closed, so every acknowledged batch is intact
// on disk when the process exits and the next -wal run replays it.
func runIngest(base core.Config, stored *dataset.Dataset, o *options, obs *remobs.Observer) error {
	if o.serve == "" {
		return errors.New("-ingest needs -serve ADDR: the batches arrive on POST /observe")
	}
	var wal *remwal.Log
	queueCfg := remwal.QueueConfig{Capacity: o.ingestCap}
	var replay []remwal.Batch
	if o.walDir != "" {
		l, recs, err := remwal.Open(remwal.Config{Dir: o.walDir, Observer: obs})
		if err != nil {
			return err
		}
		wal = l
		queueCfg.Log = l
		batches, good := remwal.Batches(recs)
		if good != len(recs) {
			return fmt.Errorf("wal %s: record %d does not decode as an observation batch (wrong directory?)", o.walDir, recs[good].Seq)
		}
		replay = batches
		fmt.Fprintf(os.Stderr, "wal %s: replaying %d batch(es)\n", o.walDir, len(replay))
	}
	q := remwal.NewQueue(queueCfg)
	q.SetObserver(obs)

	var res *core.IngestResult
	err := serveFront(o.serve, "REM queries and POST /observe", func(ctx context.Context, bind func(*remserve.Server)) error {
		cfg := core.IngestConfig{
			Config:     base,
			MaxHistory: o.history,
			Queue:      q,
			Replay:     replay,
			Context:    ctx,
			Observer:   obs,
			OnStore: func(st *remstore.Store) {
				bind(remserve.New(remserve.StoreBackend(st), remserve.Options{
					RateLimit: remserve.RateLimit{RPS: o.rate},
					Ingest:    remserve.IngestOptions{Queue: q, Token: o.ingestTok},
					Observer:  obs,
				}))
			},
			OnBatch: func(rep core.IngestReport) {
				src := "live"
				if rep.Replayed {
					src = "replay"
				}
				fmt.Fprintf(os.Stderr, "batch %d (%s): +%d rows → snapshot v%d: %d keys dirty, %d tiles shared\n",
					rep.Seq, src, rep.Rows, rep.Version, rep.DirtyKeys, rep.SharedTiles)
			},
		}
		var err error
		if stored != nil {
			res, err = core.RunIngestWithDataset(cfg, stored, nil)
		} else {
			res, err = core.RunIngest(cfg)
		}
		return err
	})
	// The front has drained: no request can be acked any more, so the
	// WAL tail is final.
	var werr error
	if wal != nil {
		last := wal.NextSeq() - 1
		if werr = wal.Close(); werr != nil {
			werr = fmt.Errorf("closing wal: %w", werr)
		} else {
			fmt.Fprintf(os.Stderr, "wal %s: closed cleanly at seq %d\n", o.walDir, last)
		}
	}
	if err != nil {
		return err
	}
	if res == nil || res.Store == nil || res.Store.Current() == nil {
		return werr
	}
	stats := res.Store.Stats()
	fmt.Fprintf(os.Stderr, "ingest: %d batch(es) published over %d snapshots (%d retained); serving v%d\n",
		len(res.Batches), stats.Publishes, stats.HistoryLen, stats.CurrentVersion)
	m := res.Store.Current().Map()
	if err := exportMap(m, o); err != nil {
		return err
	}
	return werr
}

// reportStream prints the stream summary and writes the CSV and
// snapshot exports of the final generation.
func reportStream(res *core.StreamResult, o *options) error {
	var m *rem.Map
	var err error
	if o.shards > 0 {
		stats := res.Sharded.Stats()
		fmt.Fprintf(os.Stderr, "stream: %d rounds over %d shards, %d shard publishes\n",
			stats.Rounds, stats.Shards, stats.ShardPublishes)
		for si, ps := range stats.PerShard {
			fmt.Fprintf(os.Stderr, "  shard %d: %d keys, %d publishes, serving v%d\n",
				si, len(res.Sharded.ShardKeys(si)), ps.Publishes, ps.CurrentVersion)
		}
		if m, err = res.Sharded.MergedSnapshot(); err != nil {
			return err
		}
	} else {
		stats := res.Store.Stats()
		fmt.Fprintf(os.Stderr, "stream: %d snapshots published (%d retained); serving v%d\n",
			stats.Publishes, stats.HistoryLen, stats.CurrentVersion)
		m = res.Store.Current().Map()
	}
	return exportMap(m, o)
}

// writeSnapshotOut exports the map in the binary snapshot codec
// (Map.WriteTo); an empty path is a no-op. The bytes are exactly what
// a remserve /snapshot download of the same generation returns.
func writeSnapshotOut(m *rem.Map, path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	_, werr := m.WriteTo(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// writeCSVOut exports the map as CSV to a path or stdout ("-").
func writeCSVOut(m *rem.Map, out string) error {
	w := os.Stdout
	if out != "-" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "remgen: closing output:", cerr)
			}
		}()
		w = f
	}
	return m.WriteCSV(w)
}
