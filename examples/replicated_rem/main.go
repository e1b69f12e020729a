// Replicated REM: a leader serving a live sharded REM over HTTP, and a
// remfollow replica that stays byte-identical to it through the delta
// wire — and stays *useful* when the leader dies. The walkthrough shows:
//
//  1. first contact: one full snapshot, after which the replica's
//     /snapshot bytes equal the leader's (rule 8 across replicas —
//     version fields included);
//  2. steady state: leader publishes a new generation, the replica
//     pulls only the changed tiles (a REMD delta, a fraction of the
//     full codec) and is byte-identical again;
//  3. leader killed: syncs fail, but reads keep working against the
//     last good generation; past the staleness bound the replica's
//     /healthz flips to 503 "stale" while /at still answers;
//  4. leader restarted from scratch (fresh store, reset versions): the
//     replica detects the unknown base, falls back to a full snapshot,
//     and converges on the new leader's bytes.
package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/geom"
	"repro/internal/rem"
	"repro/internal/remfollow"
	"repro/internal/remserve"
	"repro/internal/remshard"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "replicated_rem:", err)
		os.Exit(1)
	}
}

var keys = []string{
	"AA:BB:00:00:00:01", "AA:BB:00:00:00:02", "AA:BB:00:00:00:03",
	"AA:BB:00:00:00:04", "AA:BB:00:00:00:05", "AA:BB:00:00:00:06",
}

var volume = geom.MustCuboid(geom.V(0, 0, 0), 4, 3, 2.6)

// leader bundles a sharded store with its HTTP front so the walkthrough
// can kill and restart it wholesale.
type leader struct {
	ss   *remshard.ShardedStore
	srv  *remserve.Server
	lis  net.Listener
	done chan error
}

// startLeader builds a fresh sharded store (versions restart at 1 — a
// real process restart), publishes one generation, and serves it on
// addr ("127.0.0.1:0" picks a port).
func startLeader(addr string, gen *int) (*leader, error) {
	ss, err := remshard.New(keys, remshard.Config{
		Shards: 2, Volume: volume, Resolution: [3]int{10, 8, 5},
	})
	if err != nil {
		return nil, err
	}
	ld := &leader{ss: ss, done: make(chan error, 1)}
	if err := ld.publish(gen, nil); err != nil {
		return nil, err
	}
	ld.srv = remserve.New(remserve.ShardedBackend(ss), remserve.Options{})
	ld.lis, err = net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go func() { ld.done <- ld.srv.Serve(ld.lis) }()
	return ld, nil
}

// publish advances the named keys (all of them when dirty is nil) one
// generation — a deterministic field that depends on the generation
// counter, so every round is a genuinely new map.
func (ld *leader) publish(gen *int, dirty []int) error {
	*gen++
	g := float64(*gen)
	if dirty == nil {
		dirty = make([]int, len(keys))
		for i := range dirty {
			dirty[i] = i
		}
	}
	_, err := ld.ss.Rebuild(dirty, func(centers []geom.Vec3, ki int) ([]float64, error) {
		out := make([]float64, len(centers))
		for i, p := range centers {
			out[i] = -52 - p.X - 2*p.Y + p.Z - 3*g - float64(ki%3)
		}
		return out, nil
	}, rem.BuildOptions{})
	return err
}

// stop kills the leader: no drain grace, like a SIGKILL.
func (ld *leader) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = ld.srv.Shutdown(ctx)
	<-ld.done
}

// get fetches a URL and returns status, headers and body.
func get(url string) (int, http.Header, []byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, nil, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header, body, err
}

// snapshotOf downloads /snapshot and returns its bytes and ETag.
func snapshotOf(base string) ([]byte, string, error) {
	status, hdr, body, err := get(base + "/snapshot")
	if err != nil {
		return nil, "", err
	}
	if status != http.StatusOK {
		return nil, "", fmt.Errorf("GET /snapshot: %d", status)
	}
	return body, hdr.Get("ETag"), nil
}

func run() error {
	gen := 0
	ld, err := startLeader("127.0.0.1:0", &gen)
	if err != nil {
		return err
	}
	leaderAddr := ld.lis.Addr().String()
	leaderURL := "http://" + leaderAddr
	fmt.Printf("leader serving %d keys over 2 shards on %s\n\n", len(keys), leaderURL)

	// The replica: poll fast, call syncs explicitly (SyncOnce) so each
	// step of the walkthrough is deterministic; a deployment would use
	// Run(ctx) (or `remgen -follow URL -serve ADDR`).
	fl, err := remfollow.New(remfollow.Config{
		Leader:       leaderURL,
		MaxStaleness: 300 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	flis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	flDone := make(chan error, 1)
	go func() { flDone <- fl.Serve(flis) }()
	replicaURL := "http://" + flis.Addr().String()

	// ── 1. first contact: a full snapshot, then byte identity ──
	ctx := context.Background()
	if err := fl.SyncOnce(ctx); err != nil {
		return err
	}
	lb, ltag, err := snapshotOf(leaderURL)
	if err != nil {
		return err
	}
	rb, rtag, err := snapshotOf(replicaURL)
	if err != nil {
		return err
	}
	if !bytes.Equal(lb, rb) || ltag != rtag {
		return errors.New("replica differs from leader after first sync")
	}
	s := fl.SyncStats()
	fmt.Printf("1. first sync: full snapshot (%d bytes), replica /snapshot ≡ leader /snapshot, ETag %s\n\n", s.FullBytes, rtag)

	// ── 2. steady state: only the changed tiles cross the wire ──
	if err := ld.publish(&gen, []int{2}); err != nil { // one key → one shard dirty
		return err
	}
	if err := fl.SyncOnce(ctx); err != nil {
		return err
	}
	lb, _, err = snapshotOf(leaderURL)
	if err != nil {
		return err
	}
	rb, rtag, err = snapshotOf(replicaURL)
	if err != nil {
		return err
	}
	if !bytes.Equal(lb, rb) {
		return errors.New("replica differs from leader after delta sync")
	}
	s = fl.SyncStats()
	fmt.Printf("2. leader republished 1 of %d keys → delta sync: %d bytes on the wire vs %d for the full codec (%.0f%%); byte-identical again at %s\n\n",
		len(keys), s.DeltaBytes, len(lb), 100*float64(s.DeltaBytes)/float64(len(lb)), rtag)

	// ── 3. leader dies: stale reads beat no reads ──
	ld.stop()
	if err := fl.SyncOnce(ctx); err == nil {
		return errors.New("sync against a dead leader should fail")
	}
	status, _, _, err := get(replicaURL + "/at?key=" + keys[0] + "&x=1&y=1&z=1")
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("stale /at: status %d err %v", status, err)
	}
	time.Sleep(400 * time.Millisecond) // cross the 300ms staleness bound
	hstatus, _, hbody, err := get(replicaURL + "/healthz")
	if err != nil {
		return err
	}
	if hstatus != http.StatusServiceUnavailable || !bytes.Contains(hbody, []byte(`"stale"`)) {
		return fmt.Errorf("healthz past staleness bound: %d %s", hstatus, hbody)
	}
	status, _, _, err = get(replicaURL + "/at?key=" + keys[0] + "&x=1&y=1&z=1")
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("stale /at: status %d err %v", status, err)
	}
	fmt.Printf("3. leader killed: syncs fail, /at still answers from the last good generation, /healthz reports %d %s\n", hstatus, bytes.TrimSpace(hbody))

	// ── 4. leader reborn with reset versions: full resync ──
	ld, err = startLeader(leaderAddr, &gen)
	if err != nil {
		return err
	}
	defer ld.stop()
	if err := fl.SyncOnce(ctx); err != nil {
		return err
	}
	lb, _, err = snapshotOf(leaderURL)
	if err != nil {
		return err
	}
	rb, rtag, err = snapshotOf(replicaURL)
	if err != nil {
		return err
	}
	if !bytes.Equal(lb, rb) {
		return errors.New("replica differs from reborn leader")
	}
	hstatus, _, _, err = get(replicaURL + "/healthz")
	if err != nil || hstatus != http.StatusOK {
		return fmt.Errorf("healthz after resync: %d err %v", hstatus, err)
	}
	s = fl.SyncStats()
	fmt.Printf("\n4. leader restarted from scratch: unknown base → full resync (%d fulls, %d resyncs total), byte-identical at %s, /healthz 200\n",
		s.Fulls, s.Resyncs, rtag)

	sctx, scancel := context.WithTimeout(context.Background(), time.Second)
	defer scancel()
	if err := fl.Shutdown(sctx); err != nil {
		return err
	}
	<-flDone
	return nil
}
