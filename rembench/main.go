// Command rembench measures the served REM end to end: it boots the
// system in-process through its public constructors, serves it on a
// loopback TCP listener, drives it with a net/http client on at most two
// connections, checks every answer, and prints one JSON result line.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	rembench --workload point_reads --seed 1 --seconds 30 --trace 0
//
// Workloads: point_reads, batch_reads, ingest_live. With --trace 0 the
// result carries the end-to-end metrics; with --trace 1 the workload is
// run untraced and then traced, the result carries the per-layer
// metrics, standard error gets the self-time table and the tracing
// overhead, and the spans go to .bench_build/spans-<workload>.jsonl.
// METRICS.md describes every metric and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

const (
	// deploySeed seeds the deployment itself (the mission and the map it
	// yields), so every run serves the same paper-scale map; --seed picks
	// the traffic.
	deploySeed = 1
	// loadConns is the load connection budget (the machine's core count).
	loadConns = 2
	// setupRuns is how many times an untraced run boots the system; the
	// last boot serves the measured window (see bootRepeated).
	setupRuns = 21
	// workDir holds everything a run writes, relative to the checkout.
	workDir = ".bench_build"
)

// runOpts configures one workload pass.
type runOpts struct {
	seed    int64
	seconds time.Duration
	setups  int
	t       *tracer // nil: untraced
}

// outcome is one workload pass's measurements.
type outcome struct {
	tally  *loadTally
	e2e    metricSet
	layers metricSet // traced pass only
	report []string  // extra lines for the human report
}

var workloads = map[string]func(runOpts) (*outcome, error){
	"point_reads": func(o runOpts) (*outcome, error) { return runReads(o, false) },
	"batch_reads": func(o runOpts) (*outcome, error) { return runReads(o, true) },
	"ingest_live": runIngest,
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "rembench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("rembench", flag.ContinueOnError)
	name := fs.String("workload", "", "point_reads, batch_reads or ingest_live")
	seed := fs.Int64("seed", 1, "traffic seed: keys, points, observation values and arrival times")
	seconds := fs.Float64("seconds", 30, "measured window in seconds")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("bad --seconds %v or --trace %d", *seconds, *trace)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	opts := runOpts{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), setups: setupRuns}

	var res result
	var notes []string
	if *trace == 0 {
		ref0 := hostReference()
		out, err := wl(opts)
		if err != nil {
			return err
		}
		ref1 := hostReference()
		printOutcome(stderr, *name, out)
		fmt.Fprintf(stderr, "  host reference loop %.3f ms before the run, %.3f ms after\n", ms(ref0), ms(ref1))
		if res.Metrics, err = out.e2e.render(endToEnd); err != nil {
			return err
		}
		res.fill(out)
		notes = out.tally.notes
	} else {
		opts.setups = 1
		base, err := wl(opts)
		if err != nil {
			return err
		}
		opts.t = newTracer()
		out, err := wl(opts)
		if err != nil {
			return err
		}
		printOutcome(stderr, *name, out)
		spans := opts.t.snapshot()
		fmt.Fprintf(stderr, "\nper-layer self time over %d spans:\n", len(spans))
		printSelfTable(stderr, selfTable(spans))
		printLayers(stderr, out.layers)
		fmt.Fprintln(stderr, "\ntracing overhead (traced - untraced):")
		for _, s := range endToEnd {
			fmt.Fprintf(stderr, "  %-16s %12.4f - %12.4f = %+10.4f %s\n", s.Name, out.e2e[s.Name], base.e2e[s.Name], out.e2e[s.Name]-base.e2e[s.Name], s.Unit)
		}
		path := filepath.Join(workDir, "spans-"+*name+".jsonl")
		if err := writeSpans(path, spans); err != nil {
			return err
		}
		fmt.Fprintln(stderr, "spans written to", path)
		if res.Metrics, err = out.layers.render(perLayer()); err != nil {
			return err
		}
		res.fill(out)
		res.Correct = res.Correct && base.tally.wrong == 0
		notes = append(base.tally.notes, out.tally.notes...)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return fmt.Errorf("wrong answers: %v", notes)
	}
	return nil
}

func (r *result) fill(out *outcome) {
	r.Attempted, r.Failed = out.tally.totals()
	r.Correct = out.tally.wrong == 0
}

// printOutcome writes the human report: every end-to-end metric with
// its unit and the per-endpoint request counts.
func printOutcome(w io.Writer, name string, out *outcome) {
	fmt.Fprintf(w, "workload %s\n", name)
	for _, s := range endToEnd {
		fmt.Fprintf(w, "  %-16s %14.4f %s\n", s.Name, out.e2e[s.Name], s.Unit)
	}
	sent, failed := out.tally.totals()
	fmt.Fprintf(w, "  %-16s %14.6f (%d of %d operations)\n", "failed_frac", ratio(float64(failed), float64(sent)), failed, sent)
	eps := make([]string, 0, len(out.tally.perEP))
	for ep := range out.tally.perEP {
		eps = append(eps, ep)
	}
	sort.Strings(eps)
	for _, ep := range eps {
		c := out.tally.perEP[ep]
		fmt.Fprintf(w, "  endpoint %-20s sent %8d ok %8d failed %6d\n", ep, c.sent, c.ok, c.failed)
	}
	for _, l := range out.report {
		fmt.Fprintln(w, " ", l)
	}
	for _, n := range out.tally.notes {
		fmt.Fprintln(w, "  note:", n)
	}
}

// printLayers writes every per-layer metric in catalog order.
func printLayers(w io.Writer, m metricSet) {
	fmt.Fprintln(w, "\nper-layer metrics:")
	for _, s := range perLayer() {
		fmt.Fprintf(w, "  %-40s %14.4f %s\n", s.Name, m[s.Name], s.Unit)
	}
}

// bootRepeated boots the system n times, keeping the last boot, and
// returns the set-up time: each boot runs from start to first correct
// answer, and the figure is the median over the boots with no more than
// the median CPU steal (see slices.go).
func bootRepeated[S interface{ close() error }](n int, boot func() (S, error)) (S, float64, error) {
	var sys S
	times := make([]float64, 0, n)
	steal := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		st0, tot0, ok0 := readSteal()
		start := time.Now()
		s, err := boot()
		if err != nil {
			return sys, 0, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		times = append(times, time.Since(start).Seconds())
		if st1, tot1, ok1 := readSteal(); ok0 && ok1 {
			steal = append(steal, ratio(st1-st0, tot1-tot0))
		}
		if i < n-1 {
			if err := s.close(); err != nil {
				return sys, 0, fmt.Errorf("tearing down set-up %d: %w", i+1, err)
			}
			// Like a fresh process, the next set-up starts without the
			// last one's garbage.
			runtime.GC()
			continue
		}
		sys = s
	}
	var kept []float64
	for _, i := range quiet(n, steal) {
		kept = append(kept, times[i])
	}
	return sys, median(kept), nil
}

// hostReference times a fixed CPU-bound loop, the best of five passes.
// It is printed beside every untraced report: when all of a run's
// figures move, it tells a faster or slower host from a faster or slower
// program.
func hostReference() time.Duration {
	buf := make([]byte, 1<<16)
	for i := range buf {
		buf[i] = byte(i)
	}
	best := time.Duration(math.MaxInt64)
	for pass := 0; pass < 5; pass++ {
		start := time.Now()
		h := fnv.New64a()
		for k := 0; k < 64; k++ {
			h.Write(buf)
		}
		refSink += h.Sum64()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// refSink keeps the reference loop's result live.
var refSink uint64

// warmup is the unmeasured lead-in before a closed loop: connections
// open, pools fill and the heap reaches its working size.
func warmup(window time.Duration) time.Duration {
	if d := window / 10; d < time.Second {
		return d
	}
	return time.Second
}
