package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"rpcoib/internal/bench"
	"rpcoib/internal/metrics"
	"rpcoib/internal/tracing"
)

// layerMetric is one per-layer metric every traced run reports. A metric
// that does not apply to a workload reads 0 there.
type layerMetric struct{ name, unit string }

// layerMetrics lists the per-layer metrics besides the <layer>.host_share
// family, which hostLayers names.
var layerMetrics = []layerMetric{
	{"sim.barriers", "count"},
	{"ibverbs.eager_sends_per_op", "count"},
	{"ibverbs.inline_sends_per_op", "count"},
	{"ibverbs.rdma_sends_per_op", "count"},
	{"ibverbs.cq_polls_per_op", "count"},
	{"ibverbs.srq_rnr_total", "count"},
	{"ibverbs.srq_posted_peak", "count"},
	{"ibverbs.qp_mux_qps_peak", "count"},
	{"ibverbs.budget_denied_total", "count"},
	{"bufpool.hit_ratio", "ratio"},
	{"bufpool.grows_per_op", "count"},
	{"bufpool.regets_per_op", "count"},
	{"bufpool.peak_registered_mb", "MiB"},
	{"wire.bytes_out_per_op", "B"},
	{"core.client_serialize_us.p50", "us"},
	{"core.client_send_us.p50", "us"},
	{"core.server_recv_us.p50", "us"},
	{"core.server_queue_us.p50", "us"},
	{"core.server_queue_us.p99", "us"},
	{"core.server_handler_us.p50", "us"},
	{"core.server_reply_us.p50", "us"},
	{"core.client_call_self_us.p50", "us"},
	{"core.retries_total", "count"},
	{"core.conn_cache_hit_ratio", "ratio"},
	{"core.conn_cache_evictions_total", "count"},
	{"bench.op_self_us.p50", "us"},
	{"ycsb.get_us.p50", "us"},
	{"ycsb.get_us.p99", "us"},
	{"ycsb.put_us.p50", "us"},
	{"ycsb.put_us.p99", "us"},
	{"hdfs.pipeline_bytes_per_put", "B"},
	{"tracing.spans_per_op", "count"},
	{"tracing.dropped_total", "count"},
	{"tracing.overhead_ratio", "ratio"},
	{"hammer.shed_ratio", "ratio"},
	{"hammer.busy_ratio", "ratio"},
	{"failed_ratio", "ratio"},
	{"sim_latency_samples", "count"},
	{"sim_latency_p50_us", "us"},
	{"model.fig5a_1b_err_pct", "%"},
	{"model.fig5a_4kb_err_pct", "%"},
}

// layerReport turns a traced run's layer values and CPU samples per layer
// into the --trace 1 report. Every listed metric is present.
func layerReport(layers map[string]float64, ops int64, profile map[string]int64) (*report, error) {
	err1B, err4KB := fig5aAnchor()
	layers["model.fig5a_1b_err_pct"] = math.Abs(err1B)
	layers["model.fig5a_4kb_err_pct"] = math.Abs(err4KB)

	rep := &report{attempted: ops}
	var total int64
	for _, n := range profile {
		total += n
	}
	if total == 0 {
		return nil, fmt.Errorf("the CPU profile holds no samples")
	}
	known := map[string]bool{}
	for _, l := range hostLayers {
		name := l + ".host_share"
		known[name] = true
		rep.add(name, "ratio", float64(profile[l])/float64(total))
	}
	for _, m := range layerMetrics {
		known[m.name] = true
		rep.add(m.name, m.unit, layers[m.name])
	}
	for name := range layers {
		if !known[name] {
			return nil, fmt.Errorf("layer metric %q is not in the reported set", name)
		}
	}
	rep.notef("%d CPU samples over the steady phase", total)
	rep.notef("Fig 5(a) anchor: simulated RPCoIB latency is %+.2f%% from the paper at 1 B, %+.2f%% at 4 KB", err1B, err4KB)
	return rep, nil
}

// tracedLayers computes the per-layer metrics of a traced single-kernel
// phase from its window: the registry delta over the window (diff, and the
// gauges of end), the spans that fall inside it, and the CPU profile.
func tracedLayers(r *phaseResult, l *opLoop, spanJSONL []byte, diff, end metrics.Snapshot, prof *profiler) (*phaseResult, error) {
	var err error
	if r.Profile, err = prof.layers(); err != nil {
		return nil, err
	}
	spans, err := tracing.ReadSpans(bytes.NewReader(spanJSONL))
	if err != nil {
		return nil, fmt.Errorf("read spans: %w", err)
	}
	from, to := int64(l.t0), int64(end.At())
	var window []tracing.Span
	for _, sp := range spans {
		if sp.StartNS >= from && sp.End() <= to {
			window = append(window, sp)
		}
	}
	ops := float64(r.Ops)
	perOp := func(name string) float64 { return counterSum(diff, name) / ops }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	both := func(s metrics.Snapshot, sum func(metrics.Snapshot, string) float64, suffix string) float64 {
		return sum(s, "rpc_client_"+suffix) + sum(s, "rpc_server_"+suffix)
	}
	cacheHits := counterSum(diff, "rpc_conn_cache_hits_total")
	puts := 0
	if len(l.lat) > 1 {
		puts = len(l.lat[1])
	}
	r.Layers = map[string]float64{
		"ibverbs.eager_sends_per_op":      perOp("ib_eager_sends_total"),
		"ibverbs.inline_sends_per_op":     perOp("ib_inline_sends_total"),
		"ibverbs.rdma_sends_per_op":       perOp("ib_rdma_sends_total"),
		"ibverbs.cq_polls_per_op":         perOp("ib_cq_polls_total"),
		"ibverbs.srq_rnr_total":           counterSum(diff, "rpc_ib_srq_rnr_total"),
		"ibverbs.srq_posted_peak":         gaugeSum(end, "rpc_ib_srq_posted_peak"),
		"ibverbs.qp_mux_qps_peak":         gaugeSum(end, "rpc_ib_qp_mux_qps_peak"),
		"ibverbs.budget_denied_total":     counterSum(diff, "rpc_ib_srq_budget_denied_total"),
		"bufpool.hit_ratio":               ratio(both(diff, counterSum, "pool_native_hits_total"), both(diff, counterSum, "pool_native_gets_total")),
		"bufpool.grows_per_op":            both(diff, counterSum, "pool_grows_total") / ops,
		"bufpool.regets_per_op":           both(diff, counterSum, "pool_regets_total") / ops,
		"bufpool.peak_registered_mb":      mib(both(end, gaugeSum, "pool_native_peak_bytes_registered")),
		"wire.bytes_out_per_op":           both(diff, counterSum, "bytes_out_total") / ops,
		"core.retries_total":              counterSum(diff, "rpc_client_retries_total"),
		"core.conn_cache_hit_ratio":       ratio(cacheHits, cacheHits+counterSum(diff, "rpc_conn_cache_misses_total")),
		"core.conn_cache_evictions_total": counterSum(diff, "rpc_conn_cache_evictions_total"),
		"hdfs.pipeline_bytes_per_put":     ratio(counterSum(diff, "hdfs_pipeline_bytes_total"), float64(puts)),
		"tracing.spans_per_op":            float64(len(window)) / ops,
		"tracing.dropped_total":           counterSum(end, tracing.MTraceDropped),
	}
	for name, v := range spanLayers(window) {
		r.Layers[name] = v
	}
	return r, nil
}

// spanStages maps the program's stage spans to the metrics of their
// virtual durations.
var spanStages = map[string]string{
	"client.serialize": "core.client_serialize_us",
	"client.send":      "core.client_send_us",
	"server.recv":      "core.server_recv_us",
	"server.queue":     "core.server_queue_us",
	"server.handler":   "core.server_handler_us",
	"server.reply":     "core.server_reply_us",
}

// spanLayers derives the span metrics: stage durations, and the self time
// of each client call and each benchmark op — its duration minus the part
// its child spans cover.
func spanLayers(spans []tracing.Span) map[string]float64 {
	children := map[uint64][]tracing.Span{}
	for _, sp := range spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	stage := map[string][]time.Duration{}
	for _, sp := range spans {
		switch name := sp.Name; {
		case spanStages[name] != "":
			stage[spanStages[name]] = append(stage[spanStages[name]], time.Duration(sp.DurNS))
		case name == "client.call":
			stage["core.client_call_self_us"] = append(stage["core.client_call_self_us"], selfTime(sp, children[sp.ID]))
		case strings.HasPrefix(name, "bench."):
			stage["bench.op_self_us"] = append(stage["bench.op_self_us"], selfTime(sp, children[sp.ID]))
		}
	}
	out := map[string]float64{}
	for name, durs := range stage {
		st := summarize(durs)
		out[name+".p50"] = st.P50US
		if name == "core.server_queue_us" {
			out[name+".p99"] = st.P99US
		}
	}
	return out
}

// selfTime is sp's duration minus the union of its children's intervals,
// clipped to sp.
func selfTime(sp tracing.Span, kids []tracing.Span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.StartNS, sp.StartNS), min(k.End(), sp.End())
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, reach int64 = 0, sp.StartNS
	for _, v := range ivs {
		if v.a > reach {
			reach = v.a
		}
		if v.b > reach {
			covered += v.b - reach
			reach = v.b
		}
	}
	return time.Duration(sp.DurNS - covered)
}

// hammerLayers computes the per-layer metrics of a traced hammer run from
// its result, its merged metrics snapshot and its CPU profile.
func hammerLayers(r *phaseResult, res bench.HammerResult, spanJSONL []byte, prof *profiler) (*phaseResult, error) {
	var err error
	if r.Profile, err = prof.layers(); err != nil {
		return nil, err
	}
	spans, err := tracing.ReadSpans(bytes.NewReader(spanJSONL))
	if err != nil {
		return nil, fmt.Errorf("read spans: %w", err)
	}
	s := res.Final
	hits, misses := counterSum(s, "rpc_conn_cache_hits_total"), counterSum(s, "rpc_conn_cache_misses_total")
	consumed := counterSum(s, "rpc_ib_srq_consumed_total")
	busyRatio := float64(res.Busy) / float64(res.Calls+res.Busy)
	r.Layers = map[string]float64{
		"sim.barriers":                    float64(res.Barriers),
		"ibverbs.srq_rnr_total":           counterSum(s, "rpc_ib_srq_rnr_total"),
		"ibverbs.srq_posted_peak":         float64(res.SRQPostedPeak),
		"ibverbs.qp_mux_qps_peak":         float64(res.QPsPeak),
		"ibverbs.budget_denied_total":     counterSum(s, "rpc_ib_srq_budget_denied_total"),
		"core.conn_cache_hit_ratio":       hits / (hits + misses),
		"core.conn_cache_evictions_total": float64(res.Evictions),
		"hammer.shed_ratio":               float64(res.Shed) / (float64(res.Shed) + consumed),
		"hammer.busy_ratio":               busyRatio,
		"failed_ratio":                    busyRatio,
		"tracing.spans_per_op":            float64(len(spans)) / float64(res.Calls),
		"tracing.dropped_total":           float64(res.SpanDrops),
	}
	return r, nil
}
