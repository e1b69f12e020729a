package remserve

import (
	"crypto/subtle"
	"errors"
	"net/http"
	"strconv"

	"repro/internal/geom"
	"repro/internal/rem"
	"repro/internal/remwal"
)

// POST /observe is the write half of the serving edge: observation
// batches enter the bounded ingest queue (remwal.Queue), which
// persists them to the write-ahead log before acknowledging — an
// accepted observation survives kill -9 and replays into the exact
// same published snapshots (determinism contract rule 10). The
// request codec is negotiated like POST /at: Content-Type
// application/x-rem-batch selects the binary "REMO" message
// (remwal.DecodeBatch), anything else the JSON shape
//
//	{"key":"aa:bb:…","observations":[[x,y,z,value],…]}
//
// parsed by the shared JSON decoder (batchparse.go). Both
// codecs produce the same canonical WAL bytes, so replay is
// independent of the wire the observations arrived on. The response is
// JSON: {"accepted":N,"seq":S} — S the WAL sequence number (0 when the
// queue is ephemeral).
//
// Failure surface: 401 on a bad bearer token, 404 for a key outside
// the vocabulary (or when ingest is not configured at all), 413 over
// the shared body/point caps, 429 + Retry-After when the queue is full
// (load-shedding — the drain-rate estimate, never a blocked read),
// 503 once the stream loop is down or the WAL has failed (a failed log
// refuses every append until it is reopened).

// IngestOptions wires the write path into a Server.
type IngestOptions struct {
	// Queue is the bounded ingest queue POST /observe submits into; nil
	// leaves the server read-only (404 on /observe).
	Queue *remwal.Queue
	// Token, when non-empty, requires "Authorization: Bearer <Token>"
	// on POST /observe (constant-time comparison; 401 otherwise).
	Token string
}

// observeReq is the JSON body shape of POST /observe.
type observeReq struct {
	Key          string       `json:"key"`
	Observations [][4]float64 `json:"observations"`
}

// handleObserve serves POST /observe.
func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	if s.ingestToken != "" {
		auth := r.Header.Get("Authorization")
		if subtle.ConstantTimeCompare([]byte(auth), []byte("Bearer "+s.ingestToken)) != 1 {
			w.Header().Set("WWW-Authenticate", `Bearer realm="remserve"`)
			http.Error(w, "remserve: missing or invalid ingest token", http.StatusUnauthorized)
			return
		}
	}
	bb := bufPool.Get().(*buffers)
	defer func() { bufPool.Put(bb) }()
	body, ok := s.readCappedBody(w, r, bb)
	if !ok {
		return
	}
	var batch remwal.Batch
	if isWireContentType(r.Header.Get("Content-Type")) {
		var err error
		if batch, err = remwal.DecodeBatch(body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	} else {
		var err *wireError
		if batch, err = parseJSONObserve(body); err != nil {
			http.Error(w, err.msg, err.status)
			return
		}
	}
	if len(batch.Points) > DefaultMaxBatchPoints {
		http.Error(w, "remserve: observation batch of "+strconv.Itoa(len(batch.Points))+
			" points exceeds the "+strconv.Itoa(DefaultMaxBatchPoints)+"-point cap", http.StatusRequestEntityTooLarge)
		return
	}
	seq, err := s.ingestQ.Submit(batch)
	if err != nil {
		observeError(w, err)
		return
	}
	b := append(bb.out[:0], `{"accepted":`...)
	b = strconv.AppendInt(b, int64(len(batch.Points)), 10)
	b = append(b, `,"seq":`...)
	b = strconv.AppendUint(b, seq, 10)
	b = append(b, "}\n"...)
	writeJSON(w, b)
	bb.out = b
}

// observeError maps a queue rejection to its status: 404 outside the
// vocabulary, 429 + Retry-After at capacity, 503 once the loop is down
// or the WAL has failed (a failed log stays failed until reopened), 400
// for any other validation failure.
func observeError(w http.ResponseWriter, err error) {
	var full *remwal.FullError
	switch {
	case errors.As(err, &full):
		w.Header().Set("Retry-After", strconv.Itoa(full.RetryAfter))
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.Is(err, remwal.ErrClosed):
		http.Error(w, "remserve: ingest pipeline is down", http.StatusServiceUnavailable)
	case errors.Is(err, remwal.ErrAppend):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, rem.ErrUnknownKey):
		http.Error(w, err.Error(), http.StatusNotFound)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

// parseJSONObserve decodes the JSON observe body through the shared
// JSON decoder, then checks the key and the batch — mirroring
// parseJSONBatch. The returned batch owns its memory (it outlives the
// pooled request buffer inside the queue).
func parseJSONObserve(body []byte) (remwal.Batch, *wireError) {
	var req observeReq
	if err := decodeJSONBody(body, &req, &req.Key, &req.Observations, "observations", "observe"); err != nil {
		return remwal.Batch{}, err
	}
	if req.Key == "" {
		return remwal.Batch{}, wireErrorf(400, `remserve: observe body needs a "key"`)
	}
	if len(req.Observations) == 0 {
		return remwal.Batch{}, wireErrorf(400, "remserve: empty observation batch")
	}
	batch := remwal.Batch{
		Key:    req.Key,
		Points: make([]geom.Vec3, len(req.Observations)),
		Values: make([]float64, len(req.Observations)),
	}
	for i, o := range req.Observations {
		batch.Points[i] = geom.V(o[0], o[1], o[2])
		batch.Values[i] = o[3]
	}
	return batch, nil
}
