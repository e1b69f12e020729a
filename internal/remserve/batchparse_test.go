package remserve

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/simrand"
)

// TestBatchParseMatchesEncodingJSON pins the fast path's contract on
// the points shape: whenever scanJSONBody accepts a body, its result is exactly what
// encoding/json produces; whenever it declines, the caller's fallback
// handles the body, so behaviour never diverges.
func TestBatchParseMatchesEncodingJSON(t *testing.T) {
	cases := append([]string(nil), batchBodies...)
	// Random well-formed bodies widen the sweep.
	rng := simrand.New(7)
	for n := 0; n < 40; n++ {
		var sb strings.Builder
		fmt.Fprintf(&sb, `{"key":"%02x:%02x","points":[`, rng.Intn(256), rng.Intn(256))
		np := rng.Intn(6)
		for i := 0; i < np; i++ {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "[%g,%g,%g]", rng.Range(-10, 10), rng.Range(-10, 10), rng.Range(-10, 10))
		}
		sb.WriteString("]}")
		cases = append(cases, sb.String())
	}
	for _, body := range cases {
		var fast, generic batchReq
		ok := scanJSONBody([]byte(body), "points", &fast.Key, &fast.Points)
		if !ok {
			t.Errorf("fast path declined well-formed body %q", body)
			continue
		}
		if err := json.Unmarshal([]byte(body), &generic); err != nil {
			t.Fatalf("reference decode of %q: %v", body, err)
		}
		if fast.Key != generic.Key || len(fast.Points) != len(generic.Points) {
			t.Errorf("fast %+v vs generic %+v for %q", fast, generic, body)
			continue
		}
		for i := range fast.Points {
			for d := 0; d < 3; d++ {
				if math.Float64bits(fast.Points[i][d]) != math.Float64bits(generic.Points[i][d]) {
					t.Errorf("point %d axis %d: fast %v vs generic %v for %q", i, d, fast.Points[i][d], generic.Points[i][d], body)
				}
			}
		}
	}
}

// batchBodies are well-formed points bodies the fast path accepts.
var batchBodies = []string{
	`{"key":"AA:BB","points":[[1,2,3]]}`,
	`{"key":"AA:BB","points":[]}`,
	`{"key":"AA:BB","points":[[1.5e2,-2.25,3e-1],[0,0,0]]}`,
	`{ "points" : [ [ 1 , 2 , 3 ] ] , "key" : "k" }`,
	`{"key":"","points":[[1,2,3]]}`,
	`{}`,
	`{"key":"k"}`,
	`{"points":[[1,2,3],[4,5,6],[7,8,9]]}`,
	"{\n\t\"key\": \"k\",\n\t\"points\": [[1, 2, 3]]\n}",
	`{"key":"k","points":[[-0.0,1e10,2.5]]}`,
}

// TestBatchParseDeclines pins that the fast path never silently accepts
// what encoding/json would reject or decode differently — every body
// outside the strict subset is declined, not mangled.
func TestBatchParseDeclines(t *testing.T) {
	for _, body := range declinedBodies {
		var req batchReq
		if scanJSONBody([]byte(body), "points", &req.Key, &req.Points) {
			t.Errorf("fast path accepted %q; it must decline to the generic decoder", body)
		}
	}
}

// declinedBodies are points bodies outside the fast subset.
var declinedBodies = []string{
	``,
	`[]`,
	`{`,
	`{"key":`,
	`{"key":"k","points":[[1,2,3]]`,
	`{"key":"k","points":[[1,2,3]],}`,
	`{"key":"k","points":[[1,2]]}`,         // 2-element point
	`{"key":"k","points":[[1,2,3,4]]}`,     // 4-element point
	`{"key":"k","points":[[+1,2,3]]}`,      // leading + (not JSON)
	`{"key":"k","points":[[.5,2,3]]}`,      // bare fraction (not JSON)
	`{"key":"k","points":[[1.,2,3]]}`,      // trailing dot (not JSON)
	`{"key":"k","points":[[01,2,3]]}`,      // leading zero (not JSON)
	`{"key":"k","points":[[1e,2,3]]}`,      // empty exponent (not JSON)
	`{"key":"k","points":[[1e999,2,3]]}`,   // range overflow → generic error
	`{"key":"k","points":[[1,"2",3]]}`,     // string coordinate
	`{"key":"k","points":[[1,null,3]]}`,    // null coordinate
	`{"key":"k\u0041","points":[]}`,        // escaped key
	`{"key":"k","points":[[1,2,3]],"x":1}`, // unknown field
	`{"key":"k","key":"j","points":[]}`,    // duplicate field
	`{"key":"k","points":[[1,2,3]]} extra`,
	`{"points":[[1,2,3]],"points":[]}`,
	"{\"key\":\"\xff\",\"points\":[]}", // invalid UTF-8 key (encoding/json rewrites it)
}

// FuzzJSONBody pins the shared scanner's contract on arbitrary bytes,
// for both row shapes: whenever it accepts a body, encoding/json
// decodes the same key and bit-identical rows.
func FuzzJSONBody(f *testing.F) {
	for _, corpus := range [][]string{batchBodies, declinedBodies, observeBodies} {
		for _, body := range corpus {
			f.Add([]byte(body))
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var b batchReq
		checkScanMatchesJSON(t, body, "points", &b, &b.Key, &b.Points)
		var o observeReq
		checkScanMatchesJSON(t, body, "observations", &o, &o.Key, &o.Observations)
	})
}

// checkScanMatchesJSON scans body for the field rows shape and, if the
// scanner accepts it, decodes it again with encoding/json into ref
// (whose Key and rows field refKey and refRows point into) and compares.
func checkScanMatchesJSON[R row](t *testing.T, body []byte, field string, ref any, refKey *string, refRows *[]R) {
	t.Helper()
	var key string
	var rows []R
	if !scanJSONBody(body, field, &key, &rows) {
		return
	}
	if err := json.Unmarshal(body, ref); err != nil {
		t.Fatalf("scanner accepted %q, encoding/json rejects it: %v", body, err)
	}
	if key != *refKey || len(rows) != len(*refRows) {
		t.Fatalf("scanner (%q, %d rows) vs encoding/json (%q, %d rows) for %q", key, len(rows), *refKey, len(*refRows), body)
	}
	for i, r := range rows {
		for d := 0; d < len(r); d++ {
			if math.Float64bits(r[d]) != math.Float64bits((*refRows)[i][d]) {
				t.Fatalf("row %d column %d: scanner %v vs encoding/json %v for %q", i, d, r[d], (*refRows)[i][d], body)
			}
		}
	}
}
