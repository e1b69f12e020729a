package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/rem"
	"repro/internal/remserve"
)

// This file is the traced run's instrumentation. Every span is recorded
// by the benchmark's own code around a call into a layer's public
// surface: the client request, an http.Handler wrapped around
// remserve.Server, a remserve.Backend wrapped around the store, and the
// follower's SyncOnce. Spans stay in memory and are written out once the
// run ends; a nil *tracer is the untraced run and records nothing.

// spanHeader carries the parent span id from a client request to the
// handler wrapper serving it (both live in this process).
const spanHeader = "X-Rembench-Span"

// span is one timed interval. Start and End are nanoseconds since the
// tracer's epoch; Parent is 0 for a root.
type span struct {
	ID, Parent uint64
	Name       string
	Start, End int64
	// Bytes is the response size for handler spans and the point count
	// for backend spans (0 elsewhere).
	Bytes int64
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records spans. Safe for concurrent use.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span

	// hmu guards live: the handler spans in progress, oldest first. A
	// Backend call gets no context, so its span's parent is the oldest
	// live handler of an endpoint that makes that call and has not made
	// it yet. Two concurrent requests to one endpoint may swap children,
	// which leaves every per-endpoint total unchanged.
	hmu  sync.Mutex
	live []*liveHandler
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// at converts a wall-clock reading to the tracer's timeline.
func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.epoch)) }

func (t *tracer) id() uint64 { return t.nextID.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reset drops every span recorded so far (set-up and warm-up).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// endpointOf classifies a request into the endpoint names the handler
// spans are reported under.
func endpointOf(r *http.Request) string {
	bin := r.Header.Get("Content-Type") == remserve.WireContentType
	switch r.URL.Path {
	case "/at":
		if r.Method != http.MethodPost {
			return "at"
		}
		if bin {
			return "at_batch_bin"
		}
		return "at_batch_json"
	case "/strongest":
		if r.Method != http.MethodPost {
			return "strongest"
		}
		if bin {
			return "strongest_batch_bin"
		}
		return "strongest_batch_json"
	case "/observe", "/delta", "/snapshot":
		return r.URL.Path[1:]
	}
	return "other"
}

// countingWriter passes a response through and counts its body bytes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

// liveHandler is a handler span in progress.
type liveHandler struct {
	id    uint64
	ep    string
	calls uint8 // the Backend calls already attributed to it
}

// Backend calls; call c is bit 1<<c of liveHandler.calls.
const (
	callAt uint8 = iota
	callAtBatch
	callStrongest
	callStrongestBatch
	callSnapshot
	callSnapshotAt
)

// makes reports whether a handler for endpoint ep makes the Backend call.
func makes(ep string, call uint8) bool {
	switch call {
	case callAt:
		return ep == "at"
	case callAtBatch:
		return ep == "at_batch_bin" || ep == "at_batch_json"
	case callStrongest:
		return ep == "strongest"
	case callStrongestBatch:
		return ep == "strongest_batch_bin" || ep == "strongest_batch_json"
	}
	return ep == "delta" || ep == "snapshot"
}

// handlerSpanNames holds "remserve.<endpoint>" for every endpoint class,
// so the request path builds no strings.
var handlerSpanNames = func() map[string]string {
	m := map[string]string{}
	for _, ep := range append(endpoints, "strongest_batch_json", "snapshot", "other") {
		m[ep] = "remserve." + ep
	}
	return m
}()

// handler wraps remserve.Server.ServeHTTP with a "remserve.<endpoint>"
// span whose parent is the client span named in spanHeader.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		lh := &liveHandler{id: t.id(), ep: endpointOf(r)}
		t.hmu.Lock()
		t.live = append(t.live, lh)
		t.hmu.Unlock()
		cw := &countingWriter{ResponseWriter: w}
		start := t.now()
		next.ServeHTTP(cw, r)
		end := t.now()
		t.hmu.Lock()
		for i, l := range t.live {
			if l == lh {
				t.live = append(t.live[:i], t.live[i+1:]...)
				break
			}
		}
		t.hmu.Unlock()
		t.add(span{ID: lh.id, Parent: parent, Name: handlerSpanNames[lh.ep], Start: start, End: end, Bytes: cw.n})
	})
}

// backendSpan records a Backend call that started at start, under the
// oldest live handler that makes it.
func (t *tracer) backendSpan(name string, call uint8, start int64, points int) {
	end := t.now()
	var parent uint64
	t.hmu.Lock()
	for _, lh := range t.live {
		if lh.calls&(1<<call) == 0 && makes(lh.ep, call) {
			lh.calls |= 1 << call
			parent = lh.id
			break
		}
	}
	t.hmu.Unlock()
	t.add(span{ID: t.id(), Parent: parent, Name: name, Start: start, End: end, Bytes: int64(points)})
}

// tracedBackend wraps a remserve.Backend with one span per call, named
// after the store layer behind it ("remshard" or "remstore").
type tracedBackend struct {
	b     remserve.Backend
	t     *tracer
	names [6]string // span name per call
}

func (tb tracedBackend) span(call uint8, start int64, points int) {
	tb.t.backendSpan(tb.names[call], call, start, points)
}

func (tb tracedBackend) At(key string, p geom.Vec3) (float64, uint64, error) {
	start := tb.t.now()
	v, ver, err := tb.b.At(key, p)
	tb.span(callAt, start, 1)
	return v, ver, err
}

func (tb tracedBackend) AtBatchInto(dst []float64, key string, pts []geom.Vec3) (uint64, error) {
	start := tb.t.now()
	ver, err := tb.b.AtBatchInto(dst, key, pts)
	tb.span(callAtBatch, start, len(pts))
	return ver, err
}

func (tb tracedBackend) Strongest(p geom.Vec3) (string, float64, uint64, error) {
	start := tb.t.now()
	k, v, ver, err := tb.b.Strongest(p)
	tb.span(callStrongest, start, 1)
	return k, v, ver, err
}

func (tb tracedBackend) StrongestBatchInto(keys []string, vals []float64, pts []geom.Vec3) (uint64, error) {
	start := tb.t.now()
	ver, err := tb.b.StrongestBatchInto(keys, vals, pts)
	tb.span(callStrongestBatch, start, len(pts))
	return ver, err
}

func (tb tracedBackend) Snapshot() (*rem.Map, string, error) {
	start := tb.t.now()
	m, tag, err := tb.b.Snapshot()
	tb.span(callSnapshot, start, 0)
	return m, tag, err
}

func (tb tracedBackend) SnapshotAt(tag string) (*rem.Map, bool) {
	start := tb.t.now()
	m, ok := tb.b.SnapshotAt(tag)
	tb.span(callSnapshotAt, start, 0)
	return m, ok
}

func (tb tracedBackend) Stats() remserve.Stats { return tb.b.Stats() }

// backend wraps b when tracing; the untraced run serves b itself.
func (t *tracer) backend(b remserve.Backend, layer string) remserve.Backend {
	if t == nil {
		return b
	}
	tb := tracedBackend{b: b, t: t}
	for i, call := range []string{"at", "at_batch", "strongest", "strongest_batch", "snapshot", "snapshot_at"} {
		tb.names[i] = layer + "." + call
	}
	return tb
}

// parentTransport stamps every outgoing request with the span id held in
// parent, linking the follower's requests to its SyncOnce span.
type parentTransport struct {
	next   http.RoundTripper
	parent *atomic.Uint64
}

func (pt parentTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	r = r.Clone(r.Context())
	r.Header.Set(spanHeader, strconv.FormatUint(pt.parent.Load(), 10))
	return pt.next.RoundTrip(r)
}

// selfTimes returns, for each span, its duration minus the part of its
// interval that its children cover (overlapping children count once,
// and a child running past its parent counts only inside it).
func selfTimes(spans []span) []int64 {
	idx := make(map[uint64]int, len(spans))
	for i, s := range spans {
		idx[s.ID] = i
	}
	children := make(map[int][]int)
	for i, s := range spans {
		if p, ok := idx[s.Parent]; ok && s.Parent != 0 {
			children[p] = append(children[p], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, spans, children[i])
	}
	return self
}

// covered is the length of the union of the child intervals, clipped to
// the parent's.
func covered(parent span, spans []span, kids []int) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := spans[k].Start, spans[k].End
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	for i, v := range ivs {
		if i == 0 || v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	return total + curB - curA
}

// layerRow aggregates the spans of one name.
type layerRow struct {
	Name        string
	Count       int
	TotalNS     int64
	SelfNS      int64
	Bytes       int64
	MeanTotalUS float64
	MeanSelfUS  float64
}

// selfTable aggregates spans by name, in name order.
func selfTable(spans []span) []layerRow {
	self := selfTimes(spans)
	rows := map[string]*layerRow{}
	for i, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.TotalNS += s.dur()
		r.SelfNS += self[i]
		r.Bytes += s.Bytes
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		r.MeanTotalUS = float64(r.TotalNS) / float64(r.Count) / 1e3
		r.MeanSelfUS = float64(r.SelfNS) / float64(r.Count) / 1e3
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// printSelfTable writes the per-layer self-time table.
func printSelfTable(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "%-34s %9s %12s %12s\n", "span", "count", "mean_us", "self_us")
	for _, r := range rows {
		fmt.Fprintf(w, "%-34s %9d %12.2f %12.2f\n", r.Name, r.Count, r.MeanTotalUS, r.MeanSelfUS)
	}
}

// writeSpans writes one JSON object per line: name, id, parent, start
// and end in nanoseconds since the run's epoch.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		rec := struct {
			Name   string `json:"name"`
			ID     uint64 `json:"id"`
			Parent uint64 `json:"parent"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{s.Name, s.ID, s.Parent, s.Start, s.End}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
