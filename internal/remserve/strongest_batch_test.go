package remserve

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/rem"
	"repro/internal/remstore"
)

// postBody POSTs body with the given Content-Type and Accept headers and
// returns status, headers and response body.
func postBody(t testing.TB, url, contentType, accept, body string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return r.StatusCode, r.Header, out
}

// TestStrongestBatchRule8 pins the batch best-server endpoint across
// rule8ShardCounts: the JSON response renders exactly the keys and
// value bits StrongestBatchInto returns (which rule 8 ties to the
// monolithic map), the binary "REMW" response decodes to the identical
// keys and bit-identical values, and all four codec pairings agree.
func TestStrongestBatchRule8(t *testing.T) {
	for _, shards := range rule8ShardCounts {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			ss, mono, _ := newServedShards(t, 9, shards)
			srv := httptest.NewServer(New(ShardedBackend(ss), Options{}))
			defer srv.Close()

			pts := testPoints()
			wantKeys, wantVals := make([]string, len(pts)), make([]float64, len(pts))
			if err := ss.StrongestBatchInto(wantKeys, wantVals, pts); err != nil {
				t.Fatal(err)
			}
			for i, p := range pts {
				mk, mv := mono.Strongest(p)
				if mk != wantKeys[i] || math.Float64bits(mv) != math.Float64bits(wantVals[i]) {
					t.Fatalf("point %d: sharded (%q, %v) != monolithic (%q, %v)", i, wantKeys[i], wantVals[i], mk, mv)
				}
			}

			// JSON request, JSON response: byte-exact against an
			// independently rendered body (version is 0 on a sharded
			// backend — a batch may span shard snapshots).
			var jb bytes.Buffer
			jb.WriteString(`{"points":[`)
			for i, p := range pts {
				if i > 0 {
					jb.WriteByte(',')
				}
				fmt.Fprintf(&jb, "[%g,%g,%g]", p.X, p.Y, p.Z)
			}
			jb.WriteString(`]}`)
			status, hdr, body := postBody(t, srv.URL+"/strongest", "application/json", "", jb.String())
			if status != 200 || hdr.Get("Content-Type") != "application/json" {
				t.Fatalf("JSON POST /strongest: status %d type %q: %s", status, hdr.Get("Content-Type"), body)
			}
			var want bytes.Buffer
			want.WriteString(`{"keys":[`)
			for i, k := range wantKeys {
				if i > 0 {
					want.WriteByte(',')
				}
				fmt.Fprintf(&want, "%q", k)
			}
			want.WriteString(`],"values":[`)
			for i, v := range wantVals {
				if i > 0 {
					want.WriteByte(',')
				}
				want.WriteString(wireFloat(v))
			}
			want.WriteString("],\"version\":0}\n")
			if !bytes.Equal(body, want.Bytes()) {
				t.Fatalf("JSON body:\n got %s\nwant %s", body, want.Bytes())
			}

			// Binary request, binary response: the REMW pairs hold the
			// identical keys and bit-identical value floats.
			reqWire := AppendStrongestRequest(nil, pts)
			status, hdr, body = postBody(t, srv.URL+"/strongest", WireContentType, WireContentType, string(reqWire))
			if status != 200 || hdr.Get("Content-Type") != WireContentType {
				t.Fatalf("binary POST /strongest: status %d type %q: %s", status, hdr.Get("Content-Type"), body)
			}
			gotKeys, gotVals, ver, err := DecodeStrongestResponse(body)
			if err != nil {
				t.Fatal(err)
			}
			if ver != 0 {
				t.Fatalf("sharded binary response version %d, want 0", ver)
			}
			if len(gotKeys) != len(pts) {
				t.Fatalf("binary response has %d pairs, want %d", len(gotKeys), len(pts))
			}
			for i := range pts {
				if gotKeys[i] != wantKeys[i] || math.Float64bits(gotVals[i]) != math.Float64bits(wantVals[i]) {
					t.Fatalf("pair %d: binary (%q, %v) != direct (%q, %v)", i, gotKeys[i], gotVals[i], wantKeys[i], wantVals[i])
				}
			}

			// Cross pairings: JSON request + binary response, and binary
			// request + JSON response, agree with their same-codec twins.
			_, _, crossBin := postBody(t, srv.URL+"/strongest", "application/json", WireContentType, jb.String())
			if !bytes.Equal(crossBin, body) {
				t.Fatal("JSON-request binary response differs from binary-request binary response")
			}
			_, _, crossJSON := postBody(t, srv.URL+"/strongest", WireContentType, "", string(reqWire))
			if !bytes.Equal(crossJSON, want.Bytes()) {
				t.Fatal("binary-request JSON response differs from JSON-request JSON response")
			}
		})
	}
}

// TestStrongestBatchMonolithicVersion: a monolithic backend reports the
// serving snapshot version on the batch response, and the decoded JSON
// matches per-point GET /strongest answers.
func TestStrongestBatchMonolithicVersion(t *testing.T) {
	keys := testKeys(5)
	st := remstore.New(2)
	m, err := rem.BuildMapBatch(testVolume(), 8, 6, 4, keys, testPredict, rem.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Publish(m, len(keys)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(StoreBackend(st), Options{}))
	defer srv.Close()

	status, _, body := postBody(t, srv.URL+"/strongest", "application/json", "", `{"points":[[1,1,1],[3,2,0.5]]}`)
	if status != 200 {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp struct {
		Keys    []string  `json:"keys"`
		Values  []float64 `json:"values"`
		Version uint64    `json:"version"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Version != st.Current().Version() {
		t.Fatalf("batch version %d, serving %d", resp.Version, st.Current().Version())
	}
	if len(resp.Keys) != 2 || len(resp.Values) != 2 {
		t.Fatalf("response arity: %d keys, %d values", len(resp.Keys), len(resp.Values))
	}
	for i, p := range []geom.Vec3{geom.V(1, 1, 1), geom.V(3, 2, 0.5)} {
		wk, wv, _, err := st.Strongest(p)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Keys[i] != wk || math.Float64bits(resp.Values[i]) != math.Float64bits(wv) {
			t.Fatalf("point %d: batch (%q, %v) != Strongest (%q, %v)", i, resp.Keys[i], resp.Values[i], wk, wv)
		}
	}
}

// TestDeltaGzip pins the compressed delta: Accept-Encoding: gzip on
// GET /delta answers a gzip stream whose decompressed bytes are exactly
// the identity REMD message (CRC trailer included), under the same ETag
// and delta headers, with Vary: Accept-Encoding on both encodings. The
// full-snapshot fallback compresses the same way.
func TestDeltaGzip(t *testing.T) {
	keys := testKeys(5)
	st := remstore.New(4)
	m1, err := rem.BuildMapBatch(testVolume(), 8, 6, 4, keys, testPredict, rem.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Publish(m1, len(keys)); err != nil {
		t.Fatal(err)
	}
	m2, err := m1.RebuildKeys([]int{1, 3}, testPredict2, rem.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Publish(m2, 2); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(StoreBackend(st), Options{}))
	defer srv.Close()

	// Identity delta: the reference REMD bytes.
	status, idHdr, identity := get(t, srv.URL+"/delta?from=1")
	if status != 200 || idHdr.Get("Content-Type") != DeltaContentType {
		t.Fatalf("identity delta: status %d type %q", status, idHdr.Get("Content-Type"))
	}
	if v := idHdr.Get("Vary"); v != "Accept-Encoding" {
		t.Fatalf("identity Vary %q, want Accept-Encoding", v)
	}

	gzGet := func(path string) (*http.Response, []byte) {
		req, err := http.NewRequest(http.MethodGet, srv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Setting Accept-Encoding by hand disables Go's transparent
		// decompression, so the body is the raw gzip stream.
		req.Header.Set("Accept-Encoding", "gzip")
		r, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return r, body
	}
	gunzip := func(data []byte) []byte {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		plain, err := io.ReadAll(zr)
		if err != nil {
			t.Fatal(err)
		}
		return plain
	}

	r, compressed := gzGet("/delta?from=1")
	if r.StatusCode != 200 || r.Header.Get("Content-Type") != DeltaContentType {
		t.Fatalf("gzip delta: status %d type %q", r.StatusCode, r.Header.Get("Content-Type"))
	}
	if ce := r.Header.Get("Content-Encoding"); ce != "gzip" {
		t.Fatalf("Content-Encoding %q, want gzip", ce)
	}
	if v := r.Header.Get("Vary"); v != "Accept-Encoding" {
		t.Fatalf("gzip Vary %q, want Accept-Encoding", v)
	}
	if r.Header.Get("ETag") != idHdr.Get("ETag") || r.Header.Get("X-REM-Delta-Base") != "1" {
		t.Fatalf("gzip delta headers = %v", r.Header)
	}
	if !bytes.Equal(gunzip(compressed), identity) {
		t.Fatal("decompressed delta differs from identity REMD bytes")
	}
	if applied, err := rem.ApplyDelta(m1, gunzip(compressed)); err != nil || !applied.Equal(m2) {
		t.Fatalf("decompressed delta does not apply to the serving generation: %v", err)
	}

	// The full-snapshot fallback (unknown base) compresses identically.
	_, _, fullIdentity := get(t, srv.URL+"/delta?from=99")
	r, compressed = gzGet("/delta?from=99")
	if r.StatusCode != 200 || r.Header.Get("Content-Type") != "application/octet-stream" {
		t.Fatalf("gzip fallback: status %d type %q", r.StatusCode, r.Header.Get("Content-Type"))
	}
	if ce := r.Header.Get("Content-Encoding"); ce != "gzip" {
		t.Fatalf("fallback Content-Encoding %q, want gzip", ce)
	}
	if !bytes.Equal(gunzip(compressed), fullIdentity) {
		t.Fatal("decompressed fallback differs from identity snapshot bytes")
	}
}
