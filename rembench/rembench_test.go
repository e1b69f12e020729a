package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestQuantileTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// Nearest rank: p90 of 1..100 is 90, with exactly ten samples beyond.
	if v, err := quantile(xs, 0.9); err != nil || v != 90 {
		t.Fatalf("p90 of 100 = %v, %v; want 90", v, err)
	}
	if v, err := quantile(xs, 0.5); err != nil || v != 50 {
		t.Fatalf("p50 of 100 = %v, %v; want 50", v, err)
	}
	// p99 of 100 samples has one beyond it: refused.
	if _, err := quantile(xs, 0.99); err == nil {
		t.Fatal("p99 of 100 samples answered")
	}
	// p91 has nine beyond: refused.
	if _, err := quantile(xs, 0.91); err == nil {
		t.Fatal("p91 of 100 samples answered")
	}
	if _, err := quantile(nil, 0.5); err == nil {
		t.Fatal("p50 of no samples answered")
	}
	for _, p := range []float64{0, 1, -1, math.NaN()} {
		if _, err := quantile(xs, p); err == nil {
			t.Fatalf("quantile %v answered", p)
		}
	}
}

func TestMinSamplesMatchesQuantile(t *testing.T) {
	for _, p := range []float64{0.5, 0.9, 0.99} {
		n := minSamples(p)
		xs := make([]float64, n)
		if _, err := quantile(xs, p); err != nil {
			t.Errorf("p%v of minSamples=%d refused: %v", p, n, err)
		}
		if _, err := quantile(xs[:n-1], p); err == nil {
			t.Errorf("p%v of %d samples answered, below minSamples", p, n-1)
		}
	}
	if got := minSamples(0.99); got != 1000 {
		t.Errorf("minSamples(0.99) = %d, want 1000", got)
	}
}

func TestMedianAndMean(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if m := mean([]float64{1, 2, 6}); m != 3 {
		t.Errorf("mean = %v", m)
	}
	if r := ratio(1, 0); r != 0 {
		t.Errorf("ratio by zero = %v", r)
	}
}

func TestQuiet(t *testing.T) {
	steal := []float64{0.3, 0, 0.1, 0, 0.5}
	if got, want := quiet(5, steal), []int{1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("quiet = %v, want %v", got, want)
	}
	// Ties at the median all count: with no steal, every slice does.
	if got, want := quiet(4, []float64{0, 0, 0, 0}), []int{0, 1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("quiet without steal = %v, want %v", got, want)
	}
	if got, want := quiet(4, []float64{0.2, 0, 0.2, 0.1}), []int{1, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("quiet even = %v, want %v", got, want)
	}
	// Unknown steal: every slice counts.
	if got, want := quiet(3, nil), []int{0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("quiet with unknown steal = %v, want %v", got, want)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "handler", Start: 10, End: 60},
		{ID: 3, Parent: 2, Name: "backend", Start: 20, End: 30},
		// Overlapping children count once: [40,50) ∪ [45,55) is 15.
		{ID: 4, Parent: 2, Name: "backend", Start: 40, End: 50},
		{ID: 5, Parent: 2, Name: "backend", Start: 45, End: 55},
		// A child running past its parent counts only inside it.
		{ID: 6, Parent: 1, Name: "late", Start: 90, End: 120},
		// A parent the trace never saw leaves the span a root.
		{ID: 7, Parent: 99, Name: "orphan", Start: 0, End: 5},
	}
	want := []int64{100 - 50 - 10, 50 - 10 - 15, 10, 10, 10, 30, 5}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	rows := selfTable(spans)
	byName := map[string]layerRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	if r := byName["backend"]; r.Count != 3 || r.TotalNS != 30 || r.SelfNS != 30 || r.MeanTotalUS != 0.01 {
		t.Errorf("backend row = %+v", r)
	}
	if r := byName["handler"]; r.Count != 1 || r.SelfNS != 25 {
		t.Errorf("handler row = %+v", r)
	}
	if rows[0].Name != "backend" || rows[len(rows)-1].Name != "orphan" {
		t.Errorf("rows not in name order: %v", rows)
	}
}

// validName reports whether s obeys the BENCHMARK.json rules for metric
// and workload names: a leading letter or digit, then at most 64
// letters, digits, '_', '.' and '-' in all.
func validName(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if !alnum && (i == 0 || c != '_' && c != '.' && c != '-') {
			return false
		}
	}
	return true
}

// validUnit reports whether s obeys the rules for units: at most 16
// letters, digits, '_', '/', '%', '.' and '-'.
func validUnit(s string) bool {
	if len(s) == 0 || len(s) > 16 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '_' || c == '/' || c == '%' || c == '.' || c == '-'
		if !ok {
			return false
		}
	}
	return true
}

func TestMetricNames(t *testing.T) {
	for _, ok := range []string{"setup_s", "remserve.self_us.at_batch_json", "9lives", "a-b.c_d"} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false", ok)
		}
	}
	long := "a234567890123456789012345678901234567890123456789012345678901234"
	for _, bad := range []string{"", "_x", ".x", "x y", "x/y", long + "5"} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	if !validName(long) {
		t.Error("a 64-letter name is valid")
	}
	for _, ok := range []string{"ms", "1/s", "%", "count", "B"} {
		if !validUnit(ok) {
			t.Errorf("validUnit(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "µs", "a b", "12345678901234567"} {
		if validUnit(bad) {
			t.Errorf("validUnit(%q) = true", bad)
		}
	}
	seen := map[string]bool{}
	all := append(append([]metricSpec(nil), endToEnd...), perLayer()...)
	for _, s := range all {
		if !validName(s.Name) || !validUnit(s.Unit) || (s.Better != "lower" && s.Better != "higher") {
			t.Errorf("bad spec %+v", s)
		}
		if seen[s.Name] {
			t.Errorf("metric %s named twice", s.Name)
		}
		seen[s.Name] = true
	}
	for name := range workloads {
		if !validName(name) {
			t.Errorf("workload name %q invalid", name)
		}
	}
}

// TestCatalogMatchesBenchmarkJSON pins the printed metrics to the ones
// BENCHMARK.json declares, name, unit and direction alike.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bench.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json = %+v, catalog %+v", bench.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bench.PerLayer, perLayer()) {
		t.Errorf("per_layer in BENCHMARK.json differs from the catalog")
	}
	// batch_reads runs but is not gated (see METRICS.md).
	if len(bench.Workloads) != len(workloads)-1 {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bench.Workloads), len(workloads))
	}
	for _, w := range bench.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not run", w.Name)
		}
	}
}

func TestRenderChecksCatalog(t *testing.T) {
	specs := []metricSpec{{"a", "ms", "lower"}, {"b", "s", "lower"}}
	if _, err := (metricSet{"a": 1}).render(specs); err == nil {
		t.Error("a missing metric rendered")
	}
	if _, err := (metricSet{"a": 1, "b": 2, "c": 3}).render(specs); err == nil {
		t.Error("an uncatalogued metric rendered")
	}
	out, err := (metricSet{"a": 1, "b": 2}).render(specs)
	if err != nil || out["b"] != (metricValue{2, "s"}) {
		t.Errorf("render = %v, %v", out, err)
	}
}

func TestQueryMetricsSlices(t *testing.T) {
	// Three half-second slices of 2000 answers, the k-th (k+1) times
	// slower; the middle one ran on a stolen CPU, the first also holds a
	// failure, and one answer lands past the last full slice.
	lt := newTally(0)
	for k := 0; k < 3; k++ {
		for i := 0; i < 2000; i++ {
			end := uint32(k*500000 + i*200)
			lt.samples = append(lt.samples, sample{endUS: end, latNS: uint32((k + 1) * (i + 1) * 1000), points: 2})
		}
	}
	lt.samples = append(lt.samples, sample{endUS: 100, latNS: failedLat})
	lt.samples = append(lt.samples, sample{endUS: 1500001, latNS: 1})
	// Steal shares per slice: 0, 0.3, 0.1.
	marks := [][2]float64{{0, 0}, {0, 100}, {30, 200}, {40, 300}}
	m := metricSet{}
	line, err := queryMetrics(m, lt, 1500*time.Millisecond, marks, true)
	if err != nil {
		t.Fatal(err)
	}
	// The quiet slices are 0 and 2, with 0.5 + 0.45 unstolen seconds for
	// their 4000 answers. Their 4001 requests (the failure at +Inf) are
	// 1..2000 µs and 3, 6, …, 6000 µs: nearest-rank p50 is the 2001st,
	// 1501 µs, and p90 the 3601st, 4803 µs.
	if want := 4000 / 0.95; math.Abs(m["query_rps"]-want) > 1e-9 || !strings.HasSuffix(line, fmt.Sprintf("points answered %.0f/s", 2*want)) {
		t.Errorf("rates = %v, %q; want %v answers/s", m, line, want)
	}
	if m["query_p50_us"] != 1501 || m["query_p90_us"] != 4803 {
		t.Errorf("p50, p90 = %v, %v; want 1501, 4803", m["query_p50_us"], m["query_p90_us"])
	}
	// An open loop's rate is not scaled by steal.
	m = metricSet{}
	if _, err := queryMetrics(m, lt, 1500*time.Millisecond, marks, false); err != nil {
		t.Fatal(err)
	}
	if m["query_rps"] != 4000 {
		t.Errorf("open-loop rate = %v, want 4000", m["query_rps"])
	}
	// Without steal readings every slice counts: the 3001st of 6001
	// requests is 1638 µs, the 5401st 4203 µs.
	m = metricSet{}
	if _, err := queryMetrics(m, lt, 1500*time.Millisecond, nil, true); err != nil {
		t.Fatal(err)
	}
	if m["query_rps"] != 4000 || m["query_p50_us"] != 1638 || m["query_p90_us"] != 4203 {
		t.Errorf("all slices: %v", m)
	}
	// A window of 99 answers has no p90 with ten beyond it.
	short := newTally(0)
	short.samples = lt.samples[:99]
	if _, err := queryMetrics(metricSet{}, short, 500*time.Millisecond, nil, true); err == nil {
		t.Error("p90 of 99 samples answered")
	}
}

func TestJSONAnswers(t *testing.T) {
	body := []byte(`{"key":"AA:01","value":-61.25,"version":7}` + "\n")
	if err := checkKeyed(body, "AA:01", -61.25, 7); err != nil {
		t.Error(err)
	}
	if err := checkKeyed(body, "AA:01", -61.5, 7); err == nil {
		t.Error("a wrong value passed")
	}
	if err := checkKeyed(body, "AA:01", -61.25, 8); err == nil {
		t.Error("a wrong version passed")
	}
	batch := []byte(`{"key":"k","values":[1.5, null,-2],"version":3}`)
	if err := checkJSONValues(batch, []float64{1.5, math.NaN(), -2}, 3); err != nil {
		t.Error(err)
	}
	if err := checkJSONValues(batch, []float64{1.5, 0, -2}, 3); err == nil {
		t.Error("null matched a finite value")
	}
	if err := sameBits([]float64{math.NaN()}, []float64{math.Float64frombits(0x7ff8000000000002)}); err == nil {
		t.Error("different NaN payloads compared equal")
	}
}
