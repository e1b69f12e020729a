package remwal

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
)

// The ingest queue is the backpressure joint between the HTTP edge and
// the stream loop: Submit validates, persists (WAL append + fsync,
// when a Log is attached) and enqueues under one lock — so the WAL
// order is exactly the processing order, and an acknowledged batch is
// durable before the client sees the acknowledgement. A full queue
// sheds load (ErrFull → 429 + Retry-After) instead of blocking; a
// closed queue (the stream loop is down) fails fast (ErrClosed → 503).
// Queries never touch the queue, so ingest pressure cannot slow reads.

// DefaultQueueCapacity bounds the queue when Config leaves it zero.
const DefaultQueueCapacity = 64

// ErrClosed is returned by Submit and Pop once the queue is closed —
// the stream loop has stopped consuming.
var ErrClosed = errors.New("remwal: ingest queue closed")

// ErrAppend wraps a WAL write failure inside Submit, so the serving
// layer can tell an I/O fault (503) from a validation fault (4xx).
var ErrAppend = errors.New("remwal: wal append failed")

// FullError is returned by Submit when the queue is at capacity.
// RetryAfter is the server's drain-rate estimate of when a slot should
// free up, in whole seconds (≥ 1) — the Retry-After header value.
type FullError struct{ RetryAfter int }

func (e *FullError) Error() string {
	return fmt.Sprintf("remwal: ingest queue full (retry after %ds)", e.RetryAfter)
}

// QueueConfig tunes a Queue.
type QueueConfig struct {
	// Capacity bounds the queued batches (≤ 0 means
	// DefaultQueueCapacity).
	Capacity int
	// Log, when set, makes Submit durable: the batch is framed and
	// fsynced (per the log's policy) before it is enqueued, and the
	// returned sequence number names its WAL record.
	Log *Log
	// Now is the drain-rate clock (nil means time.Now) — injectable so
	// the Retry-After tests run on a fake clock.
	Now func() time.Time
}

// Queue is the bounded ingest queue. Submit is safe for arbitrary
// concurrency (the HTTP handlers); Pop for any number of consumers,
// though the stream loop is the only one in practice.
type Queue struct {
	ch  chan Batch
	log *Log
	now func() time.Time
	// o is the attached instrument set (observe.go), swapped atomically
	// so rejection paths that run before the lock stay race-free.
	o obsPtr

	mu       sync.Mutex
	closed   bool
	validate func(Batch) error
	enc      []byte // REMO scratch, reused across submits
	lastPop  time.Time
	drainAvg time.Duration // EWMA of the inter-pop interval
}

// NewQueue builds a queue over cfg.
func NewQueue(cfg QueueConfig) *Queue {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultQueueCapacity
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Queue{ch: make(chan Batch, cfg.Capacity), log: cfg.Log, now: cfg.Now}
}

// SetValidator installs the shape check Submit applies before
// persisting — the ingest loop's vocabulary/geometry gate. A batch the
// validator rejects is never written to the WAL, so replay only ever
// sees batches the pipeline can process.
func (q *Queue) SetValidator(fn func(Batch) error) {
	q.mu.Lock()
	q.validate = fn
	q.mu.Unlock()
}

// Submit validates, persists and enqueues one batch, returning its WAL
// sequence number (0 without a Log). A full queue returns *FullError
// without persisting anything — the client retries and no duplicate
// record is left behind; a closed queue returns ErrClosed.
func (q *Queue) Submit(b Batch) (uint64, error) {
	o := q.o.Load()
	if len(b.Points) != len(b.Values) {
		o.markInvalid()
		return 0, fmt.Errorf("remwal: batch has %d points for %d values", len(b.Points), len(b.Values))
	}
	if len(b.Points) == 0 {
		o.markInvalid()
		return 0, errors.New("remwal: empty observation batch")
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		o.markClosed()
		return 0, ErrClosed
	}
	if q.validate != nil {
		if err := q.validate(b); err != nil {
			o.markInvalid()
			return 0, err
		}
	}
	if len(q.ch) == cap(q.ch) {
		o.markFull()
		return 0, &FullError{RetryAfter: q.retryAfterLocked()}
	}
	var seq uint64
	if q.log != nil {
		q.enc = AppendBatch(q.enc[:0], b)
		var err error
		if seq, err = q.log.Append(q.enc); err != nil {
			return 0, fmt.Errorf("%w: %v", ErrAppend, err)
		}
	}
	// Cannot block: every sender holds q.mu and the length was checked
	// under it; Pop only removes.
	q.ch <- b
	o.markSubmitted()
	return seq, nil
}

// Pop dequeues the next batch, blocking until one arrives, ctx is
// done, or the queue is closed and drained (ErrClosed).
func (q *Queue) Pop(ctx context.Context) (Batch, error) {
	select {
	case b, ok := <-q.ch:
		if !ok {
			return Batch{}, ErrClosed
		}
		q.observePop()
		return b, nil
	case <-ctx.Done():
		return Batch{}, ctx.Err()
	}
}

// observePop feeds the drain-rate estimate: an EWMA (half weight on
// the newest interval) of the time between consecutive pops.
func (q *Queue) observePop() {
	q.mu.Lock()
	now := q.now()
	if !q.lastPop.IsZero() {
		dt := now.Sub(q.lastPop)
		if q.drainAvg == 0 {
			q.drainAvg = dt
		} else {
			q.drainAvg = (q.drainAvg + dt) / 2
		}
	}
	q.lastPop = now
	q.mu.Unlock()
}

// retryAfterLocked projects when the consumer should free a slot: the
// drain-interval estimate minus the time already waited since the last
// pop, rounded up to whole seconds, at least 1 (Retry-After is
// integral and "come straight back" is never useful advice from a full
// queue).
func (q *Queue) retryAfterLocked() int {
	if q.drainAvg == 0 {
		return 1
	}
	wait := q.drainAvg
	if !q.lastPop.IsZero() {
		wait -= q.now().Sub(q.lastPop)
	}
	secs := int(math.Ceil(wait.Seconds()))
	if secs < 1 {
		return 1
	}
	return secs
}

// Close stops intake: further Submits fail with ErrClosed (503 at the
// edge), while Pop keeps draining already-accepted batches and then
// reports ErrClosed. Closing twice is a no-op.
func (q *Queue) Close() {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		close(q.ch)
	}
	q.mu.Unlock()
}

// Len is the current queue depth.
func (q *Queue) Len() int { return len(q.ch) }

// Cap is the configured capacity.
func (q *Queue) Cap() int { return cap(q.ch) }

// WAL exposes the attached log (nil when the queue is ephemeral).
func (q *Queue) WAL() *Log { return q.log }
