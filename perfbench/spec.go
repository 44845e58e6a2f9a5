package main

import (
	"slices"
	"strings"
)

// endToEnd lists the end-to-end metrics every workload prints in an
// untraced run, with their units. Each workload measures them on its own
// job (README.md): events_per_s is the rate of its write path,
// write_p50_ms the median of one write (a fleet.Run, a 512-event flush, a
// device session) and read_p50_ms the median of one read of what was
// written (a figures job, a killed store's replay, a live-figures query).
// BENCHMARK.json declares them with directions and bounds; the smoke test
// keeps the two in step.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"events_per_s", "events/s"},
	{"write_p50_ms", "ms"},
	{"read_p50_ms", "ms"},
}

// layers are the modules a traced run attributes self time to; "bench"
// is the benchmark's own request spans (rounds, sessions, jobs).
var layers = []string{"bench", "fleet", "analysis", "wire", "uploader", "collector",
	"segstore", "dataset", "streaming", "ring", "http"}

// opKinds are the operation types counted in attempted/failed.
var opKinds = []string{"fleet_run", "figures", "flush", "session", "query", "replay", "gate"}

// bypassed lists, per workload, the metric groups (a per-layer metric's
// name up to its first dot) of the layers and generators it makes no
// calls into. A traced run reports their metrics as 0; any other
// per-layer metric that was not measured fails the run.
var bypassed = map[string][]string{
	"fleet-figures": {"wire", "uploader", "collector", "segstore", "dataset", "streaming", "ring", "http", "generator", "bench"},
	"ingest-bulk":   {"ring", "http", "generator", "bench"},
}

func bypasses(workload, metric string) bool {
	group, _, _ := strings.Cut(metric, ".")
	return slices.Contains(bypassed[workload], group)
}

// perLayer lists every per-layer metric a traced run prints, with its
// unit.
var perLayer = []struct{ name, unit string }{
	{"fleet.run_s", "s"},
	{"fleet.alloc_bytes_per_event", "B"},
	{"analysis.pass_s", "s"},
	{"analysis.render_s", "s"},
	{"wire.encode_ns_per_event", "ns"},
	{"wire.decode_ns_per_event", "ns"},
	{"wire.bytes_per_event", "B"},
	{"uploader.flush_p50_us", "us"},
	{"uploader.flush_p99_us", "us"},
	{"uploader.retries", "count"},
	{"collector.admit_p50_us", "us"},
	{"collector.admit_p99_us", "us"},
	{"collector.ack_p50_us", "us"},
	{"collector.fresh_ratio", "ratio"},
	{"collector.dedup_hits", "count"},
	{"collector.redirects", "count"},
	{"collector.nacks", "count"},
	{"segstore.append_ns_per_event", "ns"},
	{"segstore.append_p99_us", "us"},
	{"segstore.bytes_per_event", "B"},
	{"segstore.checkpoint_ms", "ms"},
	{"segstore.replay_events_per_s", "events/s"},
	{"segstore.seals", "count"},
	{"segstore.checkpoints", "count"},
	{"dataset.append_ns_per_event", "ns"},
	{"dataset.heap_bytes_per_event", "B"},
	{"streaming.ingest_ns", "ns"},
	{"streaming.shed_chunks", "count"},
	{"streaming.resyncs", "count"},
	{"streaming.late_drops", "count"},
	{"streaming.catchup_ms", "ms"},
	{"streaming.render_ms", "ms"},
	{"ring.target_ns", "ns"},
	{"http.segments_p50_ms", "ms"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.alloc_bytes_per_event", "B"},
	{"generator.lag_p99_ms", "ms"},
	// The open-loop tails: reported, but not end-to-end metrics with a
	// regression bound, because on a shared two-core host they follow the
	// host's CPU steal (a few percent of stolen time moves them by 2-4x
	// between runs) more than the pipeline.
	{"bench.session_p99_ms", "ms"},
	{"bench.query_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}

func init() {
	for _, l := range layers {
		perLayer = append(perLayer, struct{ name, unit string }{"self." + l + "_s", "s"})
	}
	for _, k := range opKinds {
		perLayer = append(perLayer,
			struct{ name, unit string }{"ops." + k + ".attempted", "count"},
			struct{ name, unit string }{"ops." + k + ".failed", "count"})
	}
}

// metricUnit returns the unit of a declared metric.
func metricUnit(name string) (string, bool) {
	for _, m := range append(endToEnd[:len(endToEnd):len(endToEnd)], perLayer...) {
		if m.name == name {
			return m.unit, true
		}
	}
	return "", false
}
