package main

import (
	"encoding/json"
	"io"
)

// The tables below are the single source of the benchmark's names:
// BENCHMARK.json at the repository root is printed from them with
// -manifest, and TestManifestMatchesBenchmarkJSON keeps the two equal.

// metricDef describes one reported metric.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression (0 for
	// per-layer metrics, which have no bound).
	Bound float64 `json:"bound,omitempty"`
}

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 20

// endToEnd lists the end-to-end metrics, reported for every workload.
// A bound is three times the widest spread (first to third quartile over
// ten seeds, as a share of the median) that any workload showed on the
// 2-core reference box, rounded up and capped at 0.25: a bound narrower
// than the spread could not tell a regression from the box, and the
// spread has to stay within a third of it on the hour the benchmark is
// judged. The host-time metrics spread 4 to 9 % on a noisy hour whatever
// the estimator, so they sit at the cap (10 % would need every workload
// within 3.3 %); peak RSS spreads up to 2.8 %, the allocation counters up
// to 0.6 %. bench/README.md has the tables.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.10},
	{"alloc_mb", "MB", "lower", 0.03},
	{"mallocs", "count", "lower", 0.03},
}

// perLayer lists the per-layer metrics of a traced run; the layer is the
// part of the name before the first dot and names a package of the
// repository. bench/README.md says which end-to-end metric each should
// move, and on which workload.
var perLayer = []metricDef{
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.ns_per_event_same_slot", Unit: "ns", Better: "lower"},
	{Name: "sim.ns_per_timer_reset", Unit: "ns", Better: "lower"},
	{Name: "sim.allocs_per_event", Unit: "count", Better: "lower"},

	{Name: "netsim.ns_per_hop", Unit: "ns", Better: "lower"},
	{Name: "netsim.ns_per_hop_queued", Unit: "ns", Better: "lower"},
	{Name: "netsim.ns_per_drop", Unit: "ns", Better: "lower"},
	{Name: "netsim.events_per_hop", Unit: "count", Better: "lower"},
	{Name: "netsim.pool_reuse_ratio", Unit: "ratio", Better: "higher"},

	{Name: "aqm.ns_per_pkt.droptail", Unit: "ns", Better: "lower"},
	{Name: "aqm.ns_per_pkt.red", Unit: "ns", Better: "lower"},
	{Name: "aqm.ns_per_pkt.codel", Unit: "ns", Better: "lower"},
	{Name: "aqm.ns_per_pkt.favour", Unit: "ns", Better: "lower"},

	{Name: "tcp.ns_per_segment", Unit: "ns", Better: "lower"},
	{Name: "tcp.allocs_per_segment", Unit: "count", Better: "lower"},
	{Name: "tcp.ns_per_segment_lossy", Unit: "ns", Better: "lower"},
	{Name: "tcp.ns_per_segment_racktlp", Unit: "ns", Better: "lower"},
	{Name: "tcp.retrans_ratio", Unit: "ratio", Better: "lower"},
	{Name: "tcp.ns_per_segment_trains", Unit: "ns", Better: "lower"},
	{Name: "tcp.ns_per_conn_setup", Unit: "ns", Better: "lower"},
	{Name: "tcp.timeouts", Unit: "count", Better: "lower"},

	{Name: "core.trim_ns_per_segment", Unit: "ns", Better: "lower"},
	{Name: "core.probe_segs", Unit: "count", Better: "lower"},
	{Name: "core.act_reduction_pct", Unit: "%", Better: "higher"},
	{Name: "cc.dctcp_ns_per_segment", Unit: "ns", Better: "lower"},
	{Name: "cc.cubic_ns_per_segment", Unit: "ns", Better: "lower"},

	{Name: "httpapp.ns_per_response", Unit: "ns", Better: "lower"},
	{Name: "httpapp.fleet_build_us_per_conn", Unit: "us", Better: "lower"},

	{Name: "hybrid.build_ns_per_conn", Unit: "ns", Better: "lower"},
	{Name: "hybrid.bytes_per_idle_conn", Unit: "B", Better: "lower"},
	{Name: "hybrid.cycle_ns_per_flow", Unit: "ns", Better: "lower"},
	{Name: "hybrid.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "hybrid.peak_live", Unit: "count", Better: "lower"},
	{Name: "hybrid.arena_cap", Unit: "count", Better: "lower"},
	{Name: "hybrid.live_ratio", Unit: "ratio", Better: "lower"},

	{Name: "topology.tree_build_ms", Unit: "ms", Better: "lower"},
	{Name: "topology.fattree_build_ms", Unit: "ms", Better: "lower"},
	{Name: "workload.ns_per_train", Unit: "ns", Better: "lower"},
	{Name: "metrics.ns_per_add", Unit: "ns", Better: "lower"},
	{Name: "metrics.ns_per_add_sketched", Unit: "ns", Better: "lower"},
	{Name: "metrics.snapshot_roundtrip_us", Unit: "us", Better: "lower"},

	{Name: "cellcache.key_us", Unit: "us", Better: "lower"},
	{Name: "cellcache.put_disk_us", Unit: "us", Better: "lower"},
	{Name: "cellcache.get_mem_us", Unit: "us", Better: "lower"},
	{Name: "cellcache.get_disk_us", Unit: "us", Better: "lower"},
	{Name: "cellcache.misses", Unit: "count", Better: "lower"},
	{Name: "cellcache.hits", Unit: "count", Better: "higher"},
	{Name: "cellcache.disk_kb", Unit: "KB", Better: "lower"},
	{Name: "cellcache.mem_kb", Unit: "KB", Better: "lower"},

	{Name: "experiment.cells", Unit: "count", Better: "lower"},
	{Name: "experiment.warm_mem_ms", Unit: "ms", Better: "lower"},
	{Name: "experiment.warm_disk_ms", Unit: "ms", Better: "lower"},
	{Name: "experiment.fanout_speedup", Unit: "ratio", Better: "higher"},
	{Name: "experiment.cache_overhead_pct", Unit: "%", Better: "lower"},

	{Name: "service.boot_ms", Unit: "ms", Better: "lower"},
	{Name: "service.submit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.events_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.result_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.rt_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.rt_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "service.compose_ms", Unit: "ms", Better: "lower"},
	{Name: "service.cold_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "service.shutdown_ms", Unit: "ms", Better: "lower"},
	{Name: "service.heap_kb_per_job", Unit: "KB", Better: "lower"},
	{Name: "service.simulations", Unit: "count", Better: "lower"},
	{Name: "service.cache_hits", Unit: "count", Better: "higher"},
	{Name: "service.cell_hits", Unit: "count", Better: "higher"},

	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// writeManifest prints BENCHMARK.json.
func writeManifest(w io.Writer) error {
	type workloadEntry struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type endToEndEntry struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var ws []workloadEntry
	for _, wl := range workloads {
		ws = append(ws, workloadEntry{wl.name, wl.why})
	}
	var e2e []endToEndEntry
	for _, m := range endToEnd {
		e2e = append(e2e, endToEndEntry{m.Name, m.Unit, m.Better, m.Bound})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{
		"command":     []string{"bash", "bench/run.sh"},
		"paths":       []string{"bench"},
		"run_seconds": runSeconds,
		"workloads":   ws,
		"end_to_end":  e2e,
		"per_layer":   perLayer,
	})
}
