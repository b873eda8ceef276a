package main

import (
	"math"
	"sort"
)

// metricDef declares one metric the benchmark emits. The tables below are
// the single source of names and units; BENCHMARK.json repeats them and a
// test holds the two together.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the metric's gate, repeated in BENCHMARK.json: the share by
	// which it may get worse before a change is rejected, and by which two
	// result sets of the same code may differ under -agree. 0 on the ungated
	// metrics: exact ones must be bit-equal, the rest are informational.
	bound float64
	// exact marks simulated statistics and deterministic counts: they
	// repeat exactly at a fixed seed.
	exact bool
	// gated marks the end-to-end metrics listed under end_to_end in
	// BENCHMARK.json and printed by --trace 0. The other end-to-end metrics
	// depend on the seed by more than any bound could cover (or may be 0),
	// so the driver sees them with the per-layer set under --trace 1.
	gated bool
}

// endToEnd is the ledger: the same names on every workload.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, gated: true},
	{name: "run_s", unit: "s", better: "lower", bound: 0.25, gated: true},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25, gated: true},
	{name: "allocs_per_op", unit: "count", better: "lower", bound: 0.06, gated: true},
	{name: "alloc_kb_per_op", unit: "KiB", better: "lower", bound: 0.15, gated: true},
	{name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.20, gated: true},
	{name: "failed_share", unit: "ratio", better: "lower", exact: true},
	{name: "virt_makespan_s", unit: "s", better: "lower", exact: true},
	{name: "virt_lat_p50_s", unit: "s", better: "lower", exact: true},
	{name: "virt_lat_tail_s", unit: "s", better: "lower", exact: true},
	{name: "best_value_mean", unit: "objective", better: "higher", exact: true},
}

// Per-layer metric families, in the order they are printed.
var (
	counterNames = []metricDef{
		{name: "sim.events", unit: "count", exact: true},
		{name: "sim.events_per_op", unit: "count", exact: true},
		{name: "netsim.sent", unit: "count", exact: true},
		{name: "netsim.delivered_share", unit: "ratio", better: "higher", exact: true},
		{name: "netsim.lost", unit: "count", exact: true},
		{name: "netsim.dropped", unit: "count", exact: true},
		{name: "bus.rpc_calls", unit: "count", exact: true},
		{name: "bus.rpc_retries", unit: "count", exact: true},
		{name: "bus.rpc_failures", unit: "count", exact: true},
		{name: "bus.pub_sent", unit: "count", exact: true},
		{name: "bus.pub_redelivered", unit: "count", exact: true},
		{name: "bus.dlq", unit: "count", exact: true},
		{name: "discovery.gossip_rounds", unit: "count", exact: true},
		{name: "discovery.merged_records", unit: "count", exact: true},
		{name: "discovery.gossip_failures", unit: "count", exact: true},
		{name: "security.checks", unit: "count", exact: true},
		{name: "security.authn_failures", unit: "count", exact: true},
		{name: "sched.submitted", unit: "count", exact: true},
		{name: "sched.dispatched", unit: "count", exact: true},
		{name: "sched.remote_share", unit: "ratio", exact: true},
		{name: "sched.steals", unit: "count", exact: true},
		{name: "sched.retries", unit: "count", exact: true},
		{name: "sched.requeues", unit: "count", exact: true},
		{name: "sched.failures", unit: "count", exact: true},
		{name: "knowledge.added", unit: "count", exact: true},
		{name: "knowledge.merged", unit: "count", exact: true},
		{name: "knowledge.conflicts", unit: "count", exact: true},
		{name: "instrument.completed", unit: "count", better: "higher", exact: true},
		{name: "instrument.failures", unit: "count", exact: true},
		{name: "obs.alerts", unit: "count", exact: true},
		{name: "obs.snapshots", unit: "count", exact: true},
		{name: "chaos.injections", unit: "count", exact: true},
		{name: "chaos.violations", unit: "count", exact: true},
		{name: "runtime.gc_cycles", unit: "count"},
		{name: "runtime.gc_pause_ms", unit: "ms"},
	}
	regionNames = []metricDef{
		{name: "sched.route_calls", unit: "count", exact: true},
		{name: "sched.route_per_dispatch", unit: "ratio", exact: true},
		{name: "bus.dispatch_calls", unit: "count", exact: true},
		{name: "core.decide_calls", unit: "count", exact: true},
		{name: "telemetry.record_calls", unit: "count", exact: true},
	}
	// cpuLayers are the packages that get their own *.cpu_share; every
	// other internal package and the benchmark's own frames go to "other".
	cpuLayers = []string{"sim", "netsim", "bus", "discovery", "security", "sched", "optimize",
		"knowledge", "core", "instrument", "telemetry", "trace", "prof", "obs", "chaos"}
	cpuExtra = []metricDef{
		{name: "other.cpu_share", unit: "ratio"},
		{name: "runtime.gc_cpu_share", unit: "ratio"},
		{name: "runtime.other_cpu_share", unit: "ratio"},
		{name: "host.cpu_s", unit: "s"},
		{name: "host.cpu_per_wall", unit: "ratio"},
		{name: "sim.events_per_s", unit: "1/s", better: "higher"},
	}
	probeNames = []metricDef{
		{name: "sim.probe_ns_per_event", unit: "ns"},
		{name: "netsim.probe_ns_per_msg", unit: "ns"},
		{name: "bus.probe_ns_per_rpc", unit: "ns"},
		{name: "bus.probe_ns_per_pub", unit: "ns"},
		{name: "discovery.probe_ns_per_browse", unit: "ns"},
		{name: "security.probe_ns_per_check", unit: "ns"},
		{name: "sched.probe_us_per_job", unit: "us"},
		{name: "optimize.probe_ms_per_ask", unit: "ms"},
		{name: "optimize.probe_us_per_tell", unit: "us"},
		{name: "knowledge.probe_ns_per_merge", unit: "ns"},
		{name: "telemetry.probe_ns_per_observe", unit: "ns"},
		{name: "core.new_ms", unit: "ms"},
		{name: "core.warmup_ms", unit: "ms"},
		{name: "core.submit_ms", unit: "ms"},
		{name: "core.drain_ms", unit: "ms"},
		{name: "host.trace_overhead_ratio", unit: "ratio"},
	}
	// ledgerExtras ride with the ungated end-to-end metrics under --trace 1.
	ledgerExtras = []metricDef{
		{name: "virt_lat_tail_pct", unit: "%", exact: true},
		{name: "virt_lat_samples", unit: "count", exact: true},
		{name: "gen_lateness_s", unit: "s", exact: true},
	}
)

// gatedDefs are the metrics --trace 0 prints.
func gatedDefs() []metricDef {
	var out []metricDef
	for _, d := range endToEnd {
		if d.gated {
			out = append(out, d)
		}
	}
	return out
}

// perLayerDefs are the metrics --trace 1 prints: the ungated part of the
// ledger, then the four per-layer families.
func perLayerDefs() []metricDef {
	var out []metricDef
	for _, d := range endToEnd {
		if !d.gated {
			out = append(out, d)
		}
	}
	out = append(out, ledgerExtras...)
	out = append(out, counterNames...)
	out = append(out, regionNames...)
	for _, l := range cpuLayers {
		out = append(out, metricDef{name: l + ".cpu_share", unit: "ratio"})
	}
	out = append(out, cpuExtra...)
	out = append(out, probeNames...)
	for i := range out {
		if out[i].better == "" {
			out[i].better = "lower"
		}
	}
	return out
}

// tailLadder are the percentiles virt_lat_tail_s may report.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9, 99.99, 99.999}

// tailPercentile is the highest ladder percentile with at least ten
// samples beyond it.
func tailPercentile(n int) float64 {
	p := tailLadder[0]
	for _, q := range tailLadder {
		if float64(n)*(100-q)/100 >= 10 {
			p = q
		}
	}
	return p
}

// percentile reads the p-th percentile (nearest rank) of an ascending slice:
// the middle value of an odd count at p = 50.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// summary is the spread of one host timing over the timed iterations.
type summary struct {
	n                   int
	min, q1, median, q3 float64
}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{n: len(s), min: s[0], q1: percentile(s, 25), median: percentile(s, 50), q3: percentile(s, 75)}
}
