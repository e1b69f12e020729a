package main

import (
	"fmt"
	"sort"
)

// metricSpec names one reported metric, as listed in BENCHMARK.json.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd is every metric a user of the served REM sees, reported by an
// untraced run on every workload. Each is non-zero on every workload:
// failures are carried by the result's attempted/failed counts, and the
// write-path latencies that only ingest_live has are per-layer metrics.
// The tail is p90: on the shared two-vCPU host p99 follows the
// hypervisor's steal (see METRICS.md), so the report prints it ungated.
// Points answered per second is a report line too: every request of a
// gated workload answers one point, so it would repeat query_rps.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"query_rps", "1/s", "higher"},
	{"query_p50_us", "us", "lower"},
	{"query_p90_us", "us", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// endpoints are the remserve request classes the handler wrapper splits
// its spans by.
var endpoints = []string{
	"at", "strongest", "at_batch_bin", "at_batch_json",
	"strongest_batch_bin", "observe", "delta",
}

// perLayer is every metric a traced run reports, in report order.
// METRICS.md names the end-to-end metric each one should move.
func perLayer() []metricSpec {
	specs := []metricSpec{
		{"net.transport_us", "us", "lower"},
		{"net.server_wait_us", "us", "lower"},
		{"net.conn_reuse_frac", "ratio", "higher"},
	}
	for _, ep := range endpoints {
		specs = append(specs,
			metricSpec{"remserve.handler_us." + ep, "us", "lower"},
			metricSpec{"remserve.self_us." + ep, "us", "lower"},
			metricSpec{"remserve.resp_bytes." + ep, "B", "lower"})
	}
	return append(specs, []metricSpec{
		{"remshard.at_ns", "ns", "lower"},
		{"remshard.strongest_ns", "ns", "lower"},
		{"remshard.at_batch_ns_per_point", "ns", "lower"},
		{"remshard.strongest_batch_ns_per_point", "ns", "lower"},
		{"remstore.at_ns", "ns", "lower"},
		{"remstore.snapshot_at_us", "us", "lower"},
		{"rem.coverindex_candidate_ratio", "ratio", "lower"},
		{"rem.coverindex_mend_ms", "ms", "lower"},
		{"remwal.append_us", "us", "lower"},
		{"remwal.fsync_us", "us", "lower"},
		{"remwal.fsyncs", "count", "lower"},
		{"remwal.bytes_per_body_byte", "ratio", "lower"},
		{"remwal.queue_depth_max", "count", "lower"},
		{"remwal.rejected", "count", "lower"},
		{"core.queue_wait_ms", "ms", "lower"},
		{"core.generation_ms", "ms", "lower"},
		{"ml.refit_ms", "ms", "lower"},
		{"core.observe_ms", "ms", "lower"},
		{"core.rebuild_ms", "ms", "lower"},
		{"remstore.publish_us", "us", "lower"},
		{"core.dirty_keys_per_gen", "count", "lower"},
		{"core.shared_tiles_per_gen", "count", "higher"},
		{"remfollow.sync_ms", "ms", "lower"},
		{"remfollow.transfer_apply_ms", "ms", "lower"},
		{"remfollow.delta_bytes", "B", "lower"},
		{"remfollow.delta_frac", "ratio", "higher"},
		{"runtime.alloc_bytes_per_op", "B", "lower"},
		{"runtime.gc_cpu_frac", "ratio", "lower"},
		{"loadgen.late_us_p90", "us", "lower"},
		{"ingest.observe_ack_p50_ms", "ms", "lower"},
		{"ingest.observe_ack_p90_ms", "ms", "lower"},
		{"ingest.visible_p50_ms", "ms", "lower"},
		{"ingest.visible_p90_ms", "ms", "lower"},
		{"ingest.replica_lag_p50_ms", "ms", "lower"},
	}...)
}

// metricValue is one entry of the result's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects measured values and checks them against a spec
// list, so a run can never print a metric the catalog does not name or
// omit one it does.
type metricSet map[string]float64

// render returns the JSON metrics object for specs, or an error naming
// the first metric that was not measured or was measured but not
// listed.
func (m metricSet) render(specs []metricSpec) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		v, ok := m[s.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.Name)
		}
		out[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	if len(out) != len(m) {
		var extra []string
		for name := range m {
			if _, ok := out[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics %v are not in the catalog", extra)
	}
	return out, nil
}
