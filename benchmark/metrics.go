package main

import "sort"

// metricDef is one metric as BENCHMARK.json declares it. The tables below and
// that file must agree; TestMetricTablesMatchBenchmarkJSON holds them to it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the file system sees. Every workload reports
// every one, over its primary operation: writes, reads, or creates (on
// mixed_rw_hybrid the reads). MB/s is ops_per_s times the workload's fixed
// operation size. bound is the share of the parent's median by which the
// metric may worsen before a change counts as a regression. The timed ones
// carry the widest bound the contract allows: on the shared 2-core box the
// benchmark was frozen on, the same code's runs differ by 3–12% from one
// quarter of an hour to the next with what the host is doing, and p99 by
// 13–23%, which is why the tail the ledger bounds is p95 and p99 is reported
// per layer (driver.p99_ms).
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p95_ms", "ms", "lower", 0.25},
	{"storage_b_per_user_b", "B/B", "lower", 0.005},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is reported by a traced run. Layer = package name. Metrics that do
// not apply to a workload read 0 there.
var perLayer = []metricDef{
	{Name: "client.self_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "client.rpcs_per_op", Unit: "count", Better: "lower"},
	{Name: "client.rpc_rounds_per_op", Unit: "count", Better: "lower"},
	{Name: "client.inflight_mean", Unit: "count", Better: "higher"},
	{Name: "client.full_stripe_frac", Unit: "frac", Better: "higher"},
	{Name: "client.rmw_frac", Unit: "frac", Better: "lower"},
	{Name: "client.overflow_frac", Unit: "frac", Better: "lower"},
	{Name: "client.degraded_read_frac", Unit: "frac", Better: "lower"},
	{Name: "client.parity_lock_wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.retries_per_kop", Unit: "count", Better: "lower"},
	{Name: "client.timeouts", Unit: "count", Better: "lower"},
	{Name: "client.breaker_trips", Unit: "count", Better: "lower"},
	{Name: "client.lease_renewals", Unit: "count", Better: "lower"},
	{Name: "client.timed_rpcs", Unit: "count", Better: "lower"},
	{Name: "wire.req_bytes_per_user_byte", Unit: "B/B", Better: "lower"},
	{Name: "wire.resp_bytes_per_user_byte", Unit: "B/B", Better: "lower"},
	{Name: "wire.marshal_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "wire.unmarshal_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "wire.unmarshal_alloc_b_per_b", Unit: "B/B", Better: "lower"},
	{Name: "rpc.self_ms_per_call", Unit: "ms", Better: "lower"},
	{Name: "rpc.echo_rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "rpc.echo_rtt_p99_us", Unit: "us", Better: "lower"},
	{Name: "rpc.stream_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "server.requests_per_op", Unit: "count", Better: "lower"},
	{Name: "server.handler_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "server.self_ms_per_call", Unit: "ms", Better: "lower"},
	{Name: "server.readparity_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.busy_frac_max", Unit: "frac", Better: "lower"},
	{Name: "server.busy_frac_mean", Unit: "frac", Better: "lower"},
	{Name: "server.errors", Unit: "count", Better: "lower"},
	{Name: "storage.write_calls_per_op", Unit: "count", Better: "lower"},
	{Name: "storage.read_calls_per_op", Unit: "count", Better: "lower"},
	{Name: "storage.bytes_written_per_user_byte", Unit: "B/B", Better: "lower"},
	{Name: "storage.bytes_read_per_user_byte", Unit: "B/B", Better: "lower"},
	{Name: "storage.busy_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "raid.xor_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "raid.parity_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "gf256.muladd_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "gf256.rs_encode_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "gf256.rs_reconstruct_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "extent.insert_ns", Unit: "ns", Better: "lower"},
	{Name: "extent.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "meta.handle_create_p50_us", Unit: "us", Better: "lower"},
	{Name: "meta.wal_appends_per_create", Unit: "count", Better: "lower"},
	{Name: "meta.wal_bytes_per_create", Unit: "B", Better: "lower"},
	{Name: "recovery.rebuild_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "recovery.rpcs_per_mb_rebuilt", Unit: "count", Better: "lower"},
	{Name: "recovery.bytes_read_per_byte_rebuilt", Unit: "B/B", Better: "lower"},
	{Name: "obs.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "proc.cpu_s_per_gb", Unit: "s/GB", Better: "lower"},
	{Name: "proc.cpu_s_per_kop", Unit: "s/kop", Better: "lower"},
	{Name: "proc.alloc_b_per_user_b", Unit: "B/B", Better: "lower"},
	{Name: "proc.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "proc.gc_cpu_frac", Unit: "frac", Better: "lower"},
	{Name: "proc.heap_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
	{Name: "driver.read_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "driver.write_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "driver.user_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "driver.p99_ms", Unit: "ms", Better: "lower"},
}

// latencies returns the sorted durations of the measured operations of the
// clients keep selects.
func (r *passResult) latencies(keep func(c int) bool) []int64 {
	var d []int64
	for c, ss := range r.samples {
		if !keep(c) {
			continue
		}
		for _, s := range ss {
			d = append(d, s.dur)
		}
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

// opsPerSec is the primary clients' operations over the time from the start
// barrier until the last of them finished.
func (r *passResult) opsPerSec(w *workload) float64 {
	n := 0
	for c, ss := range r.samples {
		if w.primary(c) {
			n += len(ss)
		}
	}
	return ratio(float64(n), float64(r.windowNs)/1e9)
}

// clientSpan is how long client c took over its measured operations, in
// seconds.
func (r *passResult) clientSpan(c int) float64 {
	ss := r.samples[c]
	if len(ss) == 0 {
		return 0
	}
	last := ss[len(ss)-1]
	return float64(last.start+last.dur-ss[0].start) / 1e9
}

const msPerNs = 1e-6

// endToEndValues reduces an untraced pass to the end-to-end metrics. tailQ is
// the percentile p95_ms actually holds: 95 whenever the window has the 200
// samples that supports (every full-scale run), lower on a smoke run.
func endToEndValues(w *workload, r *passResult) (vals map[string]float64, tailQ float64, n int) {
	lat := r.latencies(w.primary)
	tailQ = tailPercentile(len(lat), 95)
	return map[string]float64{
		"ops_per_s":            r.opsPerSec(w),
		"p50_ms":               float64(percentile(lat, 50)) * msPerNs,
		"p95_ms":               float64(percentile(lat, tailQ)) * msPerNs,
		"storage_b_per_user_b": ratio(float64(r.allocatedBytes), float64(r.logicalBytes)),
		"setup_s":              r.setupS,
	}, tailQ, len(lat)
}

func p50ms(ns []int64) float64 {
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(percentile(s, 50)) * msPerNs
}

// perLayerValues reduces a traced run — an untraced pass, a traced pass of
// the same size, and the probes — to the per-layer metrics. Costs of the whole
// process and the client's own counters come from the untraced pass, so the
// tracer's allocations and spans are not in them.
func perLayerValues(w *workload, plain, traced *passResult, probes map[string]float64) map[string]float64 {
	v := make(map[string]float64, len(perLayer))
	for k, x := range probes {
		v[k] = x
	}

	ops := float64(traced.window.ops)
	t := traced.window
	v["client.self_ms_per_op"] = ratio(float64(t.opSelfNs)*msPerNs, ops)
	v["client.rpcs_per_op"] = ratio(float64(t.rpcs), ops)
	v["client.rpc_rounds_per_op"] = ratio(float64(t.rpcRounds), ops)
	v["client.inflight_mean"] = ratio(float64(t.rpcSumNs), float64(t.rpcUnionNs))
	v["client.parity_lock_wait_p50_ms"] = p50ms(t.lockWaitsNs)
	v["client.timed_rpcs"] = float64(t.timedRPCs)
	user := float64(traced.userBytes)
	v["wire.req_bytes_per_user_byte"] = ratio(float64(t.reqBytes), user)
	v["wire.resp_bytes_per_user_byte"] = ratio(float64(t.respBytes), user)
	v["rpc.self_ms_per_call"] = ratio(float64(t.rpcSumNs-t.allHandlerNs)*msPerNs, float64(t.rpcs))
	v["server.requests_per_op"] = ratio(float64(t.handlerCalls), ops)
	v["server.handler_ms_per_op"] = ratio(float64(t.handlerSumNs)*msPerNs, ops)
	v["server.self_ms_per_call"] = ratio(float64(t.handlerSumNs-traced.storage.busyNs)*msPerNs, float64(t.handlerCalls))
	v["server.readparity_p50_ms"] = p50ms(t.readParityNs)
	v["server.busy_frac_max"] = t.busyMax
	v["server.busy_frac_mean"] = t.busyMean
	v["server.errors"] = float64(t.handlerFails)
	st := traced.storage
	v["storage.write_calls_per_op"] = ratio(float64(st.writes), ops)
	v["storage.read_calls_per_op"] = ratio(float64(st.reads), ops)
	v["storage.bytes_written_per_user_byte"] = ratio(float64(st.writeBytes), user)
	v["storage.bytes_read_per_user_byte"] = ratio(float64(st.readBytes), user)
	v["storage.busy_ms_per_op"] = ratio(float64(st.busyNs)*msPerNs, ops)
	v["trace.spans"] = float64(t.spans + traced.rebuild.spans)
	v["trace.overhead_frac"] = 1 - ratio(traced.opsPerSec(w), plain.opsPerSec(w))

	rb := traced.rebuild
	rebuiltMB := float64(traced.rebuiltBytes) / 1e6
	v["recovery.rebuild_mbps"] = ratio(float64(plain.rebuiltBytes)/1e6, float64(plain.rebuildNs)/1e9)
	v["recovery.rpcs_per_mb_rebuilt"] = ratio(float64(rb.rpcs), rebuiltMB)
	v["recovery.bytes_read_per_byte_rebuilt"] = ratio(float64(rb.respBytes), float64(traced.rebuiltBytes))

	m := plain.client
	portions := float64(m[cFullStripes] + m[cRMWs] + m[cOverflows] + m[cMirrors])
	v["client.full_stripe_frac"] = ratio(float64(m[cFullStripes]), portions)
	v["client.rmw_frac"] = ratio(float64(m[cRMWs]), portions)
	v["client.overflow_frac"] = ratio(float64(m[cOverflows]), portions)
	v["client.degraded_read_frac"] = ratio(float64(m[cDegradedReads]), float64(m[cReads]))
	plainOps := 0
	creates := 0
	for c, ss := range plain.samples {
		plainOps += len(ss)
		if w.roles[c].kind == opCreate {
			creates += len(ss)
		}
	}
	v["client.retries_per_kop"] = ratio(float64(m[cRetries])*1e3, float64(plainOps))
	v["client.timeouts"] = float64(m[cTimeouts])
	v["client.breaker_trips"] = float64(m[cBreakerTrips])
	v["client.lease_renewals"] = float64(m[cLeaseRenewals])
	v["meta.wal_appends_per_create"] = ratio(float64(plain.walAppends), float64(creates))

	cpuS := float64(plain.proc.cpuNs) / 1e9
	v["proc.cpu_s_per_gb"] = ratio(cpuS, float64(plain.userBytes)/1e9)
	v["proc.cpu_s_per_kop"] = ratio(cpuS, float64(plainOps)/1e3)
	v["proc.alloc_b_per_user_b"] = ratio(float64(plain.proc.allocBytes), float64(plain.userBytes))
	v["proc.allocs_per_op"] = ratio(float64(plain.proc.allocObjs), float64(plainOps))
	v["proc.gc_cpu_frac"] = ratio(plain.proc.gcCPUSec, plain.proc.totCPUSec)
	v["proc.heap_peak_mb"] = float64(plain.heapPeak) / 1e6

	v["driver.read_p50_ms"] = float64(percentile(plain.latencies(func(c int) bool { return w.roles[c].kind == opRead }), 50)) * msPerNs
	v["driver.write_p50_ms"] = float64(percentile(plain.latencies(func(c int) bool { return w.roles[c].kind == opWrite }), 50)) * msPerNs
	primary := plain.latencies(w.primary)
	v["driver.p99_ms"] = float64(percentile(primary, tailPercentile(len(primary), 99))) * msPerNs
	v["driver.user_mbps"] = ratio(float64(plain.userBytes)/1e6, max(plain.clientSpan(0), plain.clientSpan(1)))
	return v
}
