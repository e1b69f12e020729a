package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"time"

	"repro/internal/geom"
	"repro/internal/remserve"
)

// server is one remserve.Server listening on a loopback port.
type server struct {
	url      string
	shutdown func(context.Context) error
	done     chan error
}

// serve starts srv on a fresh loopback listener. The untraced run uses
// the program's own Server.Serve; the traced run serves the same handler
// through the span wrapper, with the program's default connection
// bounds.
func serve(srv *remserve.Server, t *tracer) (*server, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{url: "http://" + lis.Addr().String(), done: make(chan error, 1)}
	if t == nil {
		s.shutdown = srv.Shutdown
		go func() { s.done <- srv.Serve(lis) }()
		return s, nil
	}
	hs := &http.Server{
		Handler:           t.handler(srv),
		ReadHeaderTimeout: remserve.DefaultReadHeaderTimeout,
		ReadTimeout:       remserve.DefaultReadTimeout,
		IdleTimeout:       remserve.DefaultIdleTimeout,
	}
	s.shutdown = hs.Shutdown
	go func() {
		err := hs.Serve(lis)
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		s.done <- err
	}()
	return s, nil
}

// close drains the server and waits for its Serve to return.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.shutdown(ctx)
	if serr := <-s.done; err == nil {
		err = serr
	}
	return err
}

// newClient is a load client holding at most conns connections to the
// one server it talks to. It never uses a proxy and never compresses.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// request is one pre-built load request with its answer check.
type request struct {
	tmpl   *http.Request
	body   []byte // POST body; nil for GET
	ep     string // endpoint name (see endpoints)
	span   string // "client.<ep>", set on the first traced send
	points int
	// check validates a 200 response body against the in-process
	// answer; nil for a write.
	check func(body []byte) error
	key   string
	point geom.Vec3
}

// newRequest builds a template request; body is re-attached on every
// send so one template serves the whole run.
func newRequest(method, url, contentType string, binary bool) *http.Request {
	r, err := http.NewRequest(method, url, nil)
	if err != nil {
		panic(err) // URLs are built by this package from a parsed base
	}
	if contentType != "" {
		r.Header.Set("Content-Type", contentType)
	}
	if binary {
		r.Header.Set("Accept", remserve.WireContentType)
	}
	return r
}

// worker is one load connection's sender: it owns its client, a reusable
// response buffer and, in a traced run, the client-side counters.
type worker struct {
	hc  *http.Client
	t   *tracer
	buf bytes.Buffer

	// Traced run only.
	traced, reused int
	serverWaitNS   int64
}

// do sends one request, reads the whole body into w.buf and returns the
// status and the client-side latency. parent links the client span to
// an enclosing span (0 for none).
func (w *worker) do(rq *request, parent uint64) (int, time.Duration, error) {
	req := rq.tmpl
	if rq.body != nil {
		r := *req
		r.Body = io.NopCloser(bytes.NewReader(rq.body))
		r.ContentLength = int64(len(rq.body))
		req = &r
	}
	var id uint64
	var start, wrote, first int64
	if w.t != nil {
		id = w.t.id()
		req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
		ct := &httptrace.ClientTrace{
			GotConn: func(i httptrace.GotConnInfo) {
				if i.Reused {
					w.reused++
				}
			},
			WroteRequest:         func(httptrace.WroteRequestInfo) { wrote = w.t.now() },
			GotFirstResponseByte: func() { first = w.t.now() },
		}
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), ct))
		start = w.t.now()
	}
	t0 := time.Now()
	resp, err := w.hc.Do(req)
	if err != nil {
		return 0, time.Since(t0), err
	}
	w.buf.Reset()
	_, err = w.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if w.t != nil {
		if rq.span == "" {
			rq.span = "client." + rq.ep
		}
		w.t.add(span{ID: id, Parent: parent, Name: rq.span, Start: start, End: w.t.now()})
		w.traced++
		if first > wrote && wrote > 0 {
			w.serverWaitNS += first - wrote
		}
	}
	return resp.StatusCode, lat, err
}

// epCount tallies one endpoint's requests.
type epCount struct{ sent, ok, failed int64 }

// sample is one finished request: when it finished (µs since the
// tally's start), its latency in ns (failedLat for a failure; a success
// slower than 4.29 s reads as 4.29 s) and the points it answered.
type sample struct {
	endUS, latNS, points uint32
}

const failedLat = math.MaxUint32

// loadTally is what one closed or open loop measured.
type loadTally struct {
	start   time.Time
	samples []sample // every request, in completion order per sender
	perEP   map[string]*epCount
	// wrong counts answers that differ from the in-process answer;
	// notes keeps the first few wrong answers and failures.
	wrong int64
	notes []string
}

// newTally makes a tally with room for capacity samples; the loop that
// fills it sets its start.
func newTally(capacity int) *loadTally {
	return &loadTally{samples: make([]sample, 0, capacity), perEP: map[string]*epCount{}}
}

func (lt *loadTally) count(ep string) *epCount {
	c := lt.perEP[ep]
	if c == nil {
		c = &epCount{}
		lt.perEP[ep] = c
	}
	return c
}

// record tallies one finished request, a failure (transport error or
// non-2xx) or an answer, and reports whether it was an answer.
func (lt *loadTally) record(rq *request, status int, lat time.Duration, err error, body []byte) bool {
	c := lt.count(rq.ep)
	c.sent++
	if err == nil && status/100 != 2 {
		err = fmt.Errorf("status %d: %.200s", status, body)
	}
	end := uint32(time.Since(lt.start) / time.Microsecond)
	if err != nil {
		c.failed++
		lt.samples = append(lt.samples, sample{endUS: end, latNS: failedLat})
		lt.note(rq.ep + " failed: " + err.Error())
		return false
	}
	c.ok++
	ns := uint32(failedLat - 1)
	if lat < time.Duration(ns) {
		ns = uint32(lat)
	}
	lt.samples = append(lt.samples, sample{endUS: end, latNS: ns, points: uint32(rq.points)})
	return true
}

// check runs an answer's check, counting a mismatch as a wrong answer.
func (lt *loadTally) check(rq *request, body []byte) {
	if err := rq.check(body); err != nil {
		lt.wrong++
		lt.note(rq.ep + " wrong answer: " + err.Error())
	}
}

func (lt *loadTally) note(s string) {
	if len(lt.notes) < 5 {
		lt.notes = append(lt.notes, s)
	}
}

// merge folds another tally into lt.
func (lt *loadTally) merge(o *loadTally) {
	lt.samples = append(lt.samples, o.samples...)
	lt.wrong += o.wrong
	for _, n := range o.notes {
		lt.note(n)
	}
	for ep, c := range o.perEP {
		m := lt.count(ep)
		m.sent += c.sent
		m.ok += c.ok
		m.failed += c.failed
	}
}

func (lt *loadTally) totals() (sent, failed int64) {
	for _, c := range lt.perEP {
		sent += c.sent
		failed += c.failed
	}
	return sent, failed
}
