package main

import (
	"bufio"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
)

// rtSample is a reading of the process-wide runtime counters.
type rtSample struct {
	allocBytes               float64
	gcCPU, totalCPU, idleCPU float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSample{allocBytes: val(0), gcCPU: val(1), totalCPU: val(2), idleCPU: val(3)}
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in
// MiB: client and server together, set-up included.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// layerInput is everything a traced run measured, for layerMetrics.
type layerInput struct {
	spans         []span
	workers       []*worker
	before, after scrape // GET /metrics around the measured window
	rt0, rt1      rtSample
	ops           int64        // load requests sent in the window
	ing           *ingestTally // nil on the read workloads
}

// layerMetrics derives every per-layer metric. A layer the workload
// never reached reads 0, with a base count of 0 in the printed table.
func layerMetrics(in layerInput) metricSet {
	m := metricSet{}
	rows := map[string]layerRow{}
	for _, r := range selfTable(in.spans) {
		rows[r.Name] = r
	}
	// net: the client span's self time is the request minus the server
	// handler inside it — transport, net/http on both ends.
	var clientN int
	var clientSelfNS int64
	for name, r := range rows {
		if strings.HasPrefix(name, "client.") {
			clientN += r.Count
			clientSelfNS += r.SelfNS
		}
	}
	m["net.transport_us"] = ratio(float64(clientSelfNS)/1e3, float64(clientN))
	var traced, reused int
	var waitNS int64
	for _, w := range in.workers {
		traced += w.traced
		reused += w.reused
		waitNS += w.serverWaitNS
	}
	m["net.server_wait_us"] = ratio(float64(waitNS)/1e3, float64(traced))
	m["net.conn_reuse_frac"] = ratio(float64(reused), float64(traced))

	for _, ep := range endpoints {
		r := rows["remserve."+ep]
		m["remserve.handler_us."+ep] = r.MeanTotalUS
		m["remserve.self_us."+ep] = r.MeanSelfUS
		m["remserve.resp_bytes."+ep] = ratio(float64(r.Bytes), float64(r.Count))
	}
	perCall := func(name string) float64 { r := rows[name]; return ratio(float64(r.TotalNS), float64(r.Count)) }
	perPoint := func(name string) float64 { r := rows[name]; return ratio(float64(r.TotalNS), float64(r.Bytes)) }
	m["remshard.at_ns"] = perCall("remshard.at")
	m["remshard.strongest_ns"] = perCall("remshard.strongest")
	m["remshard.at_batch_ns_per_point"] = perPoint("remshard.at_batch")
	m["remshard.strongest_batch_ns_per_point"] = perPoint("remshard.strongest_batch")
	m["remstore.at_ns"] = perCall("remstore.at")
	m["remstore.snapshot_at_us"] = perCall("remstore.snapshot_at") / 1e3

	b, a := in.before, in.after
	m["rem.coverindex_candidate_ratio"] = a.mean("rem_store_coverindex_candidate_ratio")
	m["rem.coverindex_mend_ms"] = histMean(b, a, "rem_store_coverindex_mend_seconds", 1e3)
	m["remwal.append_us"] = histMean(b, a, "rem_wal_append_seconds", 1e6)
	m["remwal.fsync_us"] = histMean(b, a, "rem_wal_fsync_seconds", 1e6)
	fsyncs, _ := histDelta(b, a, "rem_wal_fsync_seconds")
	m["remwal.fsyncs"] = fsyncs
	m["remwal.rejected"] = a.sum("rem_wal_queue_rejected_total") - b.sum("rem_wal_queue_rejected_total")
	m["core.generation_ms"] = histMean(b, a, "rem_gen_generation_seconds", 1e3)
	m["ml.refit_ms"] = histMean(b, a, "rem_gen_refit_seconds", 1e3)
	m["core.observe_ms"] = histMean(b, a, "rem_gen_observe_seconds", 1e3)
	m["core.rebuild_ms"] = histMean(b, a, "rem_gen_rebuild_seconds", 1e3)
	m["remstore.publish_us"] = histMean(b, a, "rem_store_publish_seconds", 1e6)

	sync := rows["remfollow.sync"]
	m["remfollow.sync_ms"] = sync.MeanTotalUS / 1e3
	m["remfollow.transfer_apply_ms"] = sync.MeanSelfUS / 1e3

	m["runtime.alloc_bytes_per_op"] = ratio(in.rt1.allocBytes-in.rt0.allocBytes, float64(in.ops))
	busy := (in.rt1.totalCPU - in.rt1.idleCPU) - (in.rt0.totalCPU - in.rt0.idleCPU)
	m["runtime.gc_cpu_frac"] = ratio(in.rt1.gcCPU-in.rt0.gcCPU, busy)

	ing := in.ing
	if ing == nil {
		ing = &ingestTally{}
	}
	ing.layerMetrics(m, m["core.generation_ms"])
	return m
}
