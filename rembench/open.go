package main

import (
	"math/rand"
	"sync"
	"time"
)

// The gated read traffic is open loop: each connection sends on a
// seeded Poisson schedule at readRate, well below what the program
// answers, so the figures are latencies at a fixed load. A closed loop
// on the two shared vCPUs measured how fast the host ran: within one set
// of ten point_reads runs it swung from 27k to 41k answers/s, and beside
// ingest's refit from 16k to 31k.

// readRate is one read connection's mean rate in requests per second.
const readRate = 2500.0

// poissonDue draws a schedule of Poisson arrivals at rate per second
// over span.
func poissonDue(r *rand.Rand, rate float64, span time.Duration) []time.Duration {
	due := make([]time.Duration, 0, int(1.1*rate*span.Seconds())+16)
	for t := time.Duration(0); ; {
		t += time.Duration(r.ExpFloat64() / rate * float64(time.Second))
		if t > span {
			return due
		}
		due = append(due, t)
	}
}

// openLoop sends pool's requests in turn on one connection, each at its
// due time or at once when the previous answer came late, until the
// schedule ends or stop closes. A request's latency counts from its
// send: Go's timers wake up to a millisecond late on the measuring host,
// far more than a read takes. How late each send was is returned, in
// µs. Answers are logged for a check after the run.
func openLoop(w *worker, pool []request, due []time.Duration, start time.Time, stop <-chan struct{}, lt *loadTally, log *answerLog) []float64 {
	late := make([]float64, 0, len(due))
	for j, d := range due {
		if wait := time.Until(start.Add(d)); wait > 0 {
			time.Sleep(wait)
		}
		select {
		case <-stop:
			return late
		default:
		}
		late = append(late, float64(time.Since(start.Add(d)))/1e3)
		rq := &pool[j%len(pool)]
		status, lat, err := w.do(rq, 0)
		if lt.record(rq, status, lat, err, w.buf.Bytes()) {
			log.add(j%len(pool), w.buf.Bytes())
		}
	}
	return late
}

// openPass is one open-loop pass over several connections: per
// connection a worker, its pool, and a schedule, tally and answer log
// drawn and sized before the pass starts.
type openPass struct {
	ws      []*worker
	pools   [][]request
	dues    [][]time.Duration
	tallies []*loadTally
	logs    []*answerLog
}

// newOpenPass draws each connection's schedule over span from r.
func newOpenPass(ws []*worker, pools [][]request, r *rand.Rand, span time.Duration) *openPass {
	p := &openPass{ws: ws, pools: pools}
	for range ws {
		due := poissonDue(r, readRate, span)
		p.dues = append(p.dues, due)
		p.tallies = append(p.tallies, newTally(len(due)))
		p.logs = append(p.logs, newAnswerLog(len(due)))
	}
	return p
}

// run runs every connection's loop to the end of its schedule and
// returns the merged tally, how late the sends were (µs) and the elapsed
// time.
func (p *openPass) run() (*loadTally, []float64, time.Duration) {
	lates := make([][]float64, len(p.ws))
	start := time.Now()
	var wg sync.WaitGroup
	for i := range p.ws {
		i := i
		p.tallies[i].start = start
		wg.Add(1)
		go func() {
			defer wg.Done()
			lates[i] = openLoop(p.ws[i], p.pools[i], p.dues[i], start, nil, p.tallies[i], p.logs[i])
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, lt := range p.tallies[1:] {
		p.tallies[0].merge(lt)
	}
	var late []float64
	for _, l := range lates {
		late = append(late, l...)
	}
	return p.tallies[0], late, elapsed
}

// check checks every logged answer of the pass, counting mismatches in
// lt.
func (p *openPass) check(lt *loadTally) {
	for i, l := range p.logs {
		l.checkAll(p.pools[i], lt)
	}
}

// answerLog keeps a loop's answers for the check after the run, in one
// arena sized up front so the window does not allocate for it.
type answerLog struct {
	body []byte
	recs []answerRec
}

// answerRec is one logged answer: its request's index in the pool and
// its body's span in the arena.
type answerRec struct{ req, off, end int32 }

func newAnswerLog(n int) *answerLog {
	return &answerLog{body: make([]byte, 0, 128*n), recs: make([]answerRec, 0, n)}
}

func (l *answerLog) add(req int, body []byte) {
	off := len(l.body)
	l.body = append(l.body, body...)
	l.recs = append(l.recs, answerRec{int32(req), int32(off), int32(len(l.body))})
}

// checkAll runs the check of every logged answer, counting mismatches in
// lt.
func (l *answerLog) checkAll(pool []request, lt *loadTally) {
	for _, a := range l.recs {
		lt.check(&pool[a.req], l.body[a.off:a.end])
	}
}
