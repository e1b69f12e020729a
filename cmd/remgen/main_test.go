package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/rem"
	"repro/internal/remserve"
	"repro/internal/remshard"
)

// TestModeFlags pins the mode table: each mode accepts the flags it
// reads and refuses every flag it would ignore.
func TestModeFlags(t *testing.T) {
	for _, tc := range []struct {
		args    string
		mode    string
		wantErr string // "" accepts
	}{
		{"-res 8x6x4 -workers 2 -o x.csv -pprof 127.0.0.1:0", "", ""},
		{"-extended -dataset d.csv -snapshot s.remt -dark -80 -slice 1", "", ""},
		{"-serve :0", "", "-serve has no effect with the batch run"},
		{"-metrics", "", "-metrics has no effect with the batch run"},
		{"-wal dir", "", "-wal has no effect with the batch run (it is read with -ingest)"},
		{"-poll 1s", "", "-poll has no effect with the batch run (it is read with -follow)"},
		{"-stream -shards 2 -window 400 -history 3 -serve :0 -rate 50 -metrics -events 8 -pprof :0", "stream", ""},
		{"-stream -wal dir", "stream", "-wal has no effect with -stream"},
		{"-stream -extended", "stream", "-extended has no effect with -stream"},
		{"-stream -rate 50", "stream", "-rate has no effect with -stream unless -serve is set"},
		{"-ingest -serve :0 -wal dir -ingest-token t -ingest-queue 4 -rate 5 -history 3 -metrics", "ingest", ""},
		{"-ingest -stream -serve :0", "ingest", "-ingest and -stream are exclusive modes"},
		{"-ingest -shards 2 -serve :0", "ingest", "-shards has no effect with -ingest (it is read with -stream)"},
		{"-ingest -window 10 -serve :0", "ingest", "-window has no effect with -ingest"},
		{"-follow http://l -serve :0 -poll 1s -staleness 5s -history 3 -metrics -events 8 -pprof :0", "follow", ""},
		{"-follow http://l -serve :0 -rate 50", "follow", "-rate has no effect with -follow (it is read with -ingest or -stream)"},
		{"-follow http://l -serve :0 -stream -shards 3 -wal dir", "follow", "-shards has no effect with -follow"},
		{"-follow http://l -serve :0 -res 8x6x4", "follow", "-res has no effect with -follow"},
		{"-query http://l -key k -points 1,2 -wire binary -mode at", "query", ""},
		{"-query http://l -points 1,2 -metrics", "query", "-metrics has no effect with -query"},
		{"-query http://l -points 1,2 -serve :0", "query", "-serve has no effect with -query"},
		{"-query http://l -key k -points 1,2 -mode strongest", "query", "-key has no effect with -query -mode strongest"},
	} {
		t.Run(tc.args, func(t *testing.T) {
			_, mode, err := parseArgs(strings.Fields(tc.args))
			if mode != tc.mode {
				t.Errorf("mode %q, want %q", mode, tc.mode)
			}
			switch {
			case tc.wantErr == "" && err != nil:
				t.Errorf("refused: %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Errorf("error %v, want one containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestFlagHelpNamesModes pins that each flag's help text names exactly
// the modes that read it.
func TestFlagHelpNamesModes(t *testing.T) {
	fs := newFlagSet(new(options))
	for flag, want := range map[string]string{
		"history": "with -follow, -ingest or -stream: ",
		"serve":   "with -follow, -ingest or -stream: ",
		"rate":    "with -ingest or -stream: ",
		"wal":     "with -ingest: ",
		"seed":    "with -ingest, -stream or the batch run: ",
		"pprof":   "with -follow, -ingest, -stream or the batch run: ",
		"wire":    "with -query: ",
	} {
		if u := fs.Lookup(flag).Usage; !strings.HasPrefix(u, want) {
			t.Errorf("-%s help %q, want prefix %q", flag, u, want)
		}
	}
	if u := fs.Lookup("stream").Usage; strings.HasPrefix(u, "with ") {
		t.Errorf("mode flag -stream help %q names modes", u)
	}
}

// TestQueryClient runs the -query client against a served sharded
// store: for both endpoints the JSON and binary wires print identical
// lines, and those lines are the store's own answers.
func TestQueryClient(t *testing.T) {
	vol := geom.Cuboid{Min: geom.V(0, 0, 0), Max: geom.V(4, 3, 2.6)}
	keys := []string{"AA:BB:00:00:00:00", "AA:BB:00:00:00:01", "AA:BB:00:00:00:02"}
	ss, err := remshard.New(keys, remshard.Config{Shards: 2, Volume: vol, Resolution: [3]int{8, 6, 4}})
	if err != nil {
		t.Fatal(err)
	}
	predict := func(centers []geom.Vec3, ki int) ([]float64, error) {
		out := make([]float64, len(centers))
		for i, p := range centers {
			// Key ki is strongest near x = 1.5·ki.
			out[i] = -40 - 8*math.Abs(p.X-1.5*float64(ki)) - p.Y - p.Z
		}
		return out, nil
	}
	if _, err := ss.Rebuild([]int{0, 1, 2}, predict, rem.BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(remserve.New(remserve.ShardedBackend(ss), remserve.Options{}))
	defer srv.Close()

	const spec = "2,1.5,1;0.3,0.2;3.7,2.9,2.5"
	pts := []geom.Vec3{geom.V(2, 1.5, 1), geom.V(0.3, 0.2, 0), geom.V(3.7, 2.9, 2.5)}
	var wantAt, wantStrongest strings.Builder
	for _, p := range pts {
		v, _, err := ss.At(keys[1], p)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(&wantAt, strconv.FormatFloat(v, 'g', -1, 64))
		k, sv, _, err := ss.Strongest(p)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&wantStrongest, "%s %s\n", k, strconv.FormatFloat(sv, 'g', -1, 64))
	}

	for _, tc := range []struct{ mode, want string }{
		{"at", wantAt.String()},
		{"strongest", wantStrongest.String()},
	} {
		for _, wire := range []string{"json", "binary"} {
			var out bytes.Buffer
			if err := runQuery(&out, srv.URL, tc.mode, keys[1], spec, wire); err != nil {
				t.Fatalf("%s over %s: %v", tc.mode, wire, err)
			}
			if out.String() != tc.want {
				t.Errorf("%s over %s printed\n%s\nwant\n%s", tc.mode, wire, out.String(), tc.want)
			}
		}
	}
}
