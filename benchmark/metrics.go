package main

import (
	"strings"
	"time"
)

// metricDef names one reported metric and its unit. The lists must match
// BENCHMARK.json (metrics_test.go checks it).
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run prints: what a designer or a
// service client waits on and pays for, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops_s", "ops/s"},
	{"latency_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
}

// perLayer are the metrics a traced run prints. Times are means per call
// of the span around the named layer call; a layer a workload never
// reaches reads 0.
var perLayer = []metricDef{
	{"spec.decode_ms", "ms"},
	{"spec.validate_ms", "ms"},
	{"spec.derive_ms", "ms"},
	{"wire.cache_key_ms", "ms"},
	{"wire.response_encode_ms", "ms"},
	{"wire.response_bytes", "bytes"},
	{"sched.prepare_ms", "ms"},
	{"sched.validate_ms", "ms"},
	{"sched.validate_joint_ms", "ms"},
	{"sched.marshal_ms", "ms"},
	{"sched.joint_certified_share", "ratio"},
	{"core.plan_ms", "ms"},
	{"core.plan_ms.dense", "ms"},
	{"core.plan_ms.grid", "ms"},
	{"core.plan_ms.relay", "ms"},
	{"core.plan_ns_per_decision", "ns"},
	{"core.previews_computed", "count"},
	{"core.previews_screened", "count"},
	{"core.sigma_reuses", "count"},
	{"core.batched_commits", "count"},
	{"core.batch_fallbacks", "count"},
	{"core.replan_ms", "ms"},
	{"core.replayed_share", "ratio"},
	{"core.replay_fallbacks", "count"},
	{"sim.proc_sweep_ms", "ms"},
	{"sim.link_sweep_ms", "ms"},
	{"sim.combined_sweep_ms", "ms"},
	{"sim.scenarios_per_s", "1/s"},
	{"service.hit_share", "ratio"},
	{"service.warm_start_share", "ratio"},
	{"service.rejected_share", "ratio"},
	{"service.scheduler_runs", "count"},
	{"service.request_ms_p50", "ms"},
	{"service.request_ms_p99", "ms"},
	{"service.edge_ms", "ms"},
	{"service.handler_share", "ratio"},
	{"cluster.master_ms", "ms"},
	{"cluster.worker_ms", "ms"},
	{"cluster.rpc_ms", "ms"},
	{"cluster.coalesced_share", "ratio"},
	{"cluster.route_errors", "count"},
	{"client.latency_p90_ms", "ms"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.nominal_p50_ms", "ms"},
	{"loadgen.nominal_p99_ms", "ms"},
	{"loadgen.peak_p50_ms", "ms"},
	{"loadgen.peak_p99_ms", "ms"},
	{"loadgen.peak_goodput_rps", "req/s"},
	{"runtime.heap_peak_mb", "MB"},
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"runtime.gc_cycles_per_op", "count"},
	{"quality.failed_share", "ratio"},
	{"quality.validated_share", "ratio"},
	{"quality.masked_share", "ratio"},
	{"quality.makespan_geomean", "time-units"},
	{"trace.child_coverage", "ratio"},
}

// scale sizes the workloads: fullScale for measurement, smokeScale for
// a run of a few seconds that only proves every path still works.
type scale struct {
	warmup     time.Duration // unmeasured lead-in before the measured part
	setupReps  int           // set-ups per run; setup_s is their median
	planList   int           // distinct plan-cold problems, cycled
	verifyList int           // distinct verify-sweep problems, cycled
	spotChecks int           // verify-sweep ops whose reschedules are re-solved cold
	hotSet     int           // serve-mixed hot problems
	workingSet int           // cluster-hits working set
	cachePer   int           // cluster-hits cache entries per worker
	rateScale  float64       // multiplies the calibrated open-loop rates
	// sizeScale multiplies problem sizes (task counts).
	sizeScale float64
}

var fullScale = scale{
	warmup:     1500 * time.Millisecond,
	setupReps:  3,
	planList:   60,
	verifyList: 144,
	spotChecks: 3,
	hotSet:     24,
	workingSet: 48,
	cachePer:   40,
	rateScale:  1,
	sizeScale:  1,
}

var smokeScale = scale{
	warmup:     200 * time.Millisecond,
	setupReps:  1,
	planList:   10,
	verifyList: 6,
	spotChecks: 1,
	hotSet:     6,
	workingSet: 6,
	cachePer:   5,
	rateScale:  0.2,
	sizeScale:  0.3,
}

// layerMeans returns the mean duration, in ms, of the spans of each name.
func layerMeans(spans []span) map[string]float64 {
	sum := map[string]int64{}
	n := map[string]int{}
	for _, s := range spans {
		sum[s.name] += s.end - s.start
		n[s.name]++
	}
	out := make(map[string]float64, len(sum))
	for name, total := range sum {
		out[name] = float64(total) / float64(n[name]) / 1e6
	}
	return out
}

// childCoverage returns the median, over operation spans, of the share
// of each operation's duration its child spans cover: how completely the
// layer calls account for an operation. Client request spans, whose two
// children cover them by construction, are left out.
func childCoverage(spans []span) float64 {
	self := selfTimes(spans)
	var cov []float64
	for i, s := range spans {
		if s.parent < 0 && s.end > s.start && !strings.HasPrefix(s.name, "request.") {
			cov = append(cov, 1-float64(self[i])/float64(s.end-s.start))
		}
	}
	return median(cov)
}
