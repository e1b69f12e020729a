package remwal

import (
	"bytes"
	"errors"
	"os"
	"testing"
)

// errInjected is the fault the wrapped segment file reports.
var errInjected = errors.New("injected segment fault")

// faultyFile wraps the active segment: a Write with tearWrite set lands
// only the first half of the frame, then fails (a short write — EFBIG,
// ENOSPC); a Sync with failSync set fails (fsync EIO). Each fault fires
// once; afterwards the file behaves again, so a log that retried past
// the fault would look healthy.
type faultyFile struct {
	segmentFile
	tearWrite, failSync bool
}

func (f *faultyFile) Write(p []byte) (int, error) {
	if f.tearWrite {
		f.tearWrite = false
		n, _ := f.segmentFile.Write(p[:len(p)/2])
		return n, errInjected
	}
	return f.segmentFile.Write(p)
}

func (f *faultyFile) Sync() error {
	if f.failSync {
		f.failSync = false
		return errInjected
	}
	return f.segmentFile.Sync()
}

// injectFault wraps l's active segment.
func injectFault(l *Log, ff *faultyFile) {
	l.mu.Lock()
	ff.segmentFile = l.f
	l.f = ff
	l.mu.Unlock()
}

// TearNextWrite makes the next write to l's active segment land half a
// frame and fail. It is the seam exported to this directory's external
// tests, which drive the fault through the serving edge.
func TearNextWrite(l *Log) { injectFault(l, &faultyFile{tearWrite: true}) }

// appendAcked appends payload and records it when the log acknowledges
// it; it returns the Append error.
func appendAcked(l *Log, acked *[][]byte, payload []byte) error {
	if _, err := l.Append(payload); err != nil {
		return err
	}
	*acked = append(*acked, payload)
	return nil
}

// checkPoisoned asserts that every later Append and Sync returns first,
// the error of the failed operation. It reports with Errorf so the
// replay check that follows still runs and shows what an append acked
// past the fault costs.
func checkPoisoned(t *testing.T, l *Log, acked *[][]byte, first error) {
	t.Helper()
	if first == nil {
		t.Fatal("append across the fault succeeded")
	}
	for i := 0; i < 2; i++ {
		if err := appendAcked(l, acked, AppendBatch(nil, testBatch("cc", 2+i))); err != first {
			t.Errorf("append %d after the fault returned %v, want the original error %v", i, err, first)
		}
		if err := l.Sync(); err != first {
			t.Errorf("sync %d after the fault returned %v, want the original error %v", i, err, first)
		}
	}
}

// checkReplay closes l, reopens its directory and asserts that replay
// returns every acknowledged payload, in order, as its first records and
// returns want records in all. A failed append may still leave an
// intact frame behind (its fsync failed, its bytes did not): the client
// got an error, so replaying it loses nothing.
func checkReplay(t *testing.T, l *Log, dir string, acked [][]byte, want int) {
	t.Helper()
	l.Close()
	l2, recs, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(recs) < len(acked) {
		t.Fatalf("replay returned %d records, %d were acknowledged", len(recs), len(acked))
	}
	for i, p := range acked {
		if recs[i].Seq != uint64(i+1) || !bytes.Equal(recs[i].Payload, p) {
			t.Fatalf("replayed record %d (seq %d) differs from the acknowledged one", i, recs[i].Seq)
		}
	}
	if len(recs) != want {
		t.Fatalf("replay returned %d records, want %d", len(recs), want)
	}
}

// TestTornAppendPoisonsLog: a write that lands part of a frame fails
// the append and poisons the log. Without that, the next append would
// be written after the torn bytes, fsynced and acknowledged — and then
// lost on replay, which stops at the torn frame.
func TestTornAppendPoisonsLog(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var acked [][]byte
	if err := appendAcked(l, &acked, AppendBatch(nil, testBatch("aa", 3))); err != nil {
		t.Fatal(err)
	}
	injectFault(l, &faultyFile{tearWrite: true})
	first := appendAcked(l, &acked, AppendBatch(nil, testBatch("bb", 4)))
	if !errors.Is(first, errInjected) {
		t.Fatalf("failed append returned %v, want the injected fault", first)
	}
	checkPoisoned(t, l, &acked, first)
	checkReplay(t, l, dir, acked, 1)
}

// TestFailedFsyncPoisonsLog: after a failed fsync the kernel may have
// dropped the dirty pages, so a later successful fsync proves nothing;
// the log stays failed instead of acknowledging past it.
func TestFailedFsyncPoisonsLog(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var acked [][]byte
	if err := appendAcked(l, &acked, AppendBatch(nil, testBatch("aa", 3))); err != nil {
		t.Fatal(err)
	}
	injectFault(l, &faultyFile{failSync: true})
	first := appendAcked(l, &acked, AppendBatch(nil, testBatch("bb", 4)))
	if !errors.Is(first, errInjected) {
		t.Fatalf("failed append returned %v, want the injected fault", first)
	}
	checkPoisoned(t, l, &acked, first)
	// The unsynced frame is intact in the page cache here, so replay
	// carries it; nothing after it was written.
	checkReplay(t, l, dir, acked, 2)
}

// TestFailedRotatePoisonsLog: a rotation that cannot create the next
// segment fails the append, keeps the sealed segment as the active
// file (no nil file for the next call to dereference) and poisons the
// log.
func TestFailedRotatePoisonsLog(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Config{Dir: dir, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	var acked [][]byte
	if err := appendAcked(l, &acked, AppendBatch(nil, testBatch("aa", 3))); err != nil {
		t.Fatal(err)
	}
	// A directory squatting on the next segment's name makes its
	// exclusive create fail; replay ignores directories.
	block := l.segmentPath(l.NextSeq())
	if err := os.Mkdir(block, 0o755); err != nil {
		t.Fatal(err)
	}
	first := appendAcked(l, &acked, AppendBatch(nil, testBatch("bb", 4)))
	checkPoisoned(t, l, &acked, first)
	if err := os.Remove(block); err != nil {
		t.Fatal(err)
	}
	checkReplay(t, l, dir, acked, 1)
}
