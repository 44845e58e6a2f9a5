package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/failure"
	"repro/internal/trace/ring"
)

// samples collects a traced phase's per-layer observations by series
// name; report turns them into the declared per-layer metrics.
type samples struct {
	mu sync.Mutex
	m  map[string][]float64
}

func newSamples() *samples { return &samples{m: make(map[string][]float64)} }

func (s *samples) add(name string, v float64) {
	s.mu.Lock()
	s.m[name] = append(s.m[name], v)
	s.mu.Unlock()
}

func (s *samples) get(name string) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[name]
}

func p50(xs []float64) float64 { return quantile(xs, 0.5) }
func p99(xs []float64) float64 { return quantile(xs, 0.99) }

// sampleMetrics maps observation series to per-layer metrics.
var sampleMetrics = []struct {
	series, metric string
	agg            func([]float64) float64
}{
	{"uploader.flush_us", "uploader.flush_p50_us", p50},
	{"uploader.flush_us", "uploader.flush_p99_us", p99},
	{"uploader.retries", "uploader.retries", sum},
	{"collector.admit_us", "collector.admit_p50_us", p50},
	{"collector.admit_us", "collector.admit_p99_us", p99},
	{"collector.ack_us", "collector.ack_p50_us", p50},
	{"collector.dedup_hits", "collector.dedup_hits", sum},
	{"collector.redirects", "collector.redirects", sum},
	{"collector.nacks", "collector.nacks", sum},
	{"segstore.checkpoint_ms", "segstore.checkpoint_ms", median},
	{"segstore.seals", "segstore.seals", sum},
	{"segstore.checkpoints", "segstore.checkpoints", sum},
	{"streaming.shed_chunks", "streaming.shed_chunks", sum},
	{"streaming.resyncs", "streaming.resyncs", sum},
	{"streaming.late_drops", "streaming.late_drops", sum},
	{"streaming.catchup_ms", "streaming.catchup_ms", median},
	{"streaming.render_ms", "streaming.render_ms", median},
	{"analysis.pass_s", "analysis.pass_s", median},
	{"analysis.render_s", "analysis.render_s", median},
	{"http.segments_ms", "http.segments_p50_ms", p50},
	{"generator.lag_ms", "generator.lag_p99_ms", p99},
}

// ratioMetrics are per-layer metrics computed as a ratio of two summed
// series.
var ratioMetrics = []struct{ num, den, metric string }{
	{"collector.fresh", "collector.frames", "collector.fresh_ratio"},
	{"segstore.bytes", "collector.fresh_events", "segstore.bytes_per_event"},
	{"streaming.ingest_ns_total", "streaming.ingest_calls", "streaming.ingest_ns"},
}

func (s *samples) report(rep *report) {
	for _, m := range sampleMetrics {
		if xs := s.get(m.series); len(xs) > 0 {
			rep.set(m.metric, m.agg(xs), len(xs))
		}
	}
	for _, m := range ratioMetrics {
		num, den := s.get(m.num), s.get(m.den)
		if d := sum(den); d > 0 {
			rep.set(m.metric, sum(num)/d, int(d))
		}
	}
}

// layerCounters are the registry counters a traced phase reads around
// each pipeline's timed window.
var layerCounters = []string{
	"trace_segstore_bytes_written_total",
	"trace_segstore_segments_sealed_total",
	"trace_segstore_checkpoints_total",
	"trace_uploader_batches_total",
	"trace_uploader_flush_retries_total",
	"trace_collector_dedup_hits_total",
	"trace_collector_nacks_total",
}

// layerSnapshot holds the counters at the start of a pipeline's timed
// window, so warm-up traffic is not charged to it.
type layerSnapshot struct {
	registry                counters
	calls, events, ingestNs int64
	stream                  analysis.StreamingStatus
	redirects               int64
}

func snapshotLayers(hook *admitHook, eng *analysis.Streaming, redirects int64) layerSnapshot {
	return layerSnapshot{
		registry:  readCounters(layerCounters...),
		calls:     hook.calls.Load(),
		events:    hook.events.Load(),
		ingestNs:  hook.ingestNs.Load(),
		stream:    eng.Status(),
		redirects: redirects,
	}
}

// observe records the window's counter deltas and the streaming engine's
// waste accounting.
func (b layerSnapshot) observe(obs *samples, hook *admitHook, eng *analysis.Streaming, redirects int64) {
	reg := b.registry
	obs.add("segstore.bytes", reg.delta("trace_segstore_bytes_written_total"))
	obs.add("segstore.seals", reg.delta("trace_segstore_segments_sealed_total"))
	obs.add("segstore.checkpoints", reg.delta("trace_segstore_checkpoints_total"))
	retries := reg.delta("trace_uploader_flush_retries_total")
	obs.add("uploader.retries", retries)
	obs.add("collector.frames", reg.delta("trace_uploader_batches_total")+retries)
	obs.add("collector.dedup_hits", reg.delta("trace_collector_dedup_hits_total"))
	obs.add("collector.nacks", reg.delta("trace_collector_nacks_total"))
	obs.add("collector.redirects", float64(redirects-b.redirects))
	calls := hook.calls.Load() - b.calls
	obs.add("collector.fresh", float64(calls))
	obs.add("collector.fresh_events", float64(hook.events.Load()-b.events))
	obs.add("streaming.ingest_ns_total", float64(hook.ingestNs.Load()-b.ingestNs))
	obs.add("streaming.ingest_calls", float64(calls))
	st := eng.Status()
	obs.add("streaming.shed_chunks", float64(st.Shed-b.stream.Shed))
	obs.add("streaming.resyncs", float64(st.Resyncs-b.stream.Resyncs))
	obs.add("streaming.late_drops", float64(st.LateDrops-b.stream.LateDrops))
}

// admitHook wraps the collector's OnAdmit in a traced phase. Each
// in-flight flush owns a slot (the benchmark has at most one per
// uploader goroutine); the hook stamps when the admitted batch reached
// OnAdmit, which splits the flush into send→admit and admit→ack, and it
// times the streaming engine's Ingest call.
type admitHook struct {
	tr    *tracer
	next  func([]failure.Event)
	route func([]failure.Event) int
	slots []admitSlot

	calls, events, ingestNs atomic.Int64
}

type admitSlot struct {
	flush, req      atomic.Uint64
	admit, admitEnd atomic.Int64 // offsets from the tracer's t0; -1: not admitted
}

func newAdmitHook(tr *tracer, slots int, next func([]failure.Event), route func([]failure.Event) int) *admitHook {
	return &admitHook{tr: tr, next: next, route: route, slots: make([]admitSlot, slots)}
}

func (h *admitHook) onAdmit(events []failure.Event) {
	t0 := time.Now()
	s := &h.slots[h.route(events)]
	n := len(events)
	h.next(events)
	t1 := time.Now()
	h.calls.Add(1)
	h.events.Add(int64(n))
	h.ingestNs.Add(int64(t1.Sub(t0)))
	fid := s.flush.Load()
	if fid == 0 {
		return // not a traced flush
	}
	s.admit.Store(int64(t0.Sub(h.tr.t0)))
	s.admitEnd.Store(int64(t1.Sub(h.tr.t0)))
	h.tr.add(0, "streaming.ingest", fid, s.req.Load(), t0, t1)
}

// begin arms slot k for a flush with span id fid and returns its start.
func (h *admitHook) begin(k int, fid, req uint64) time.Time {
	s := &h.slots[k]
	s.flush.Store(fid)
	s.req.Store(req)
	s.admit.Store(-1)
	return time.Now()
}

// finish disarms slot k and records the flush span and its collector
// sub-intervals.
func (h *admitHook) finish(k int, fid, req uint64, start, end time.Time, parent uint64, obs *samples) {
	s := &h.slots[k]
	s.flush.Store(0)
	h.tr.add(fid, "uploader.flush", parent, req, start, end)
	obs.add("uploader.flush_us", us(end.Sub(start)))
	a := s.admit.Load()
	if a < 0 {
		return
	}
	at := h.tr.t0.Add(time.Duration(a))
	ae := h.tr.t0.Add(time.Duration(s.admitEnd.Load()))
	h.tr.add(0, "collector.admit", fid, req, start, at)
	h.tr.add(0, "collector.ack", fid, req, ae, end)
	obs.add("collector.admit_us", us(at.Sub(start)))
	obs.add("collector.ack_us", us(end.Sub(ae)))
}

// tracedRouter times every ring lookup an uploader makes, as a child of
// the flush in slot 0 of the hook (the open-loop generator has one
// session in flight).
type tracedRouter struct {
	r         *ring.Router
	hook      *admitHook
	ns, calls atomic.Int64
}

func (t *tracedRouter) Target(device uint64) string {
	t0 := time.Now()
	addr := t.r.Target(device)
	t1 := time.Now()
	t.ns.Add(int64(t1.Sub(t0)))
	t.calls.Add(1)
	s := &t.hook.slots[0]
	if fid := s.flush.Load(); fid != 0 {
		t.hook.tr.add(0, "ring.target", fid, s.req.Load(), t0, t1)
	}
	return addr
}
