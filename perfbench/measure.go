package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	repmetrics "repro/internal/metrics"
)

// metric is one reported figure as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's metrics (with sample counts for the table),
// its correctness gates and its per-operation accounting. A workload fills
// both end-to-end and per-layer metrics; main prints the set the mode asks
// for.
type report struct {
	mu      sync.Mutex
	metrics map[string]metric
	counts  map[string]int // sample count behind each metric
	gates   []*gateResult  // one entry per gate name, in first-run order
	ops     map[string]*opCount
}

// gateResult aggregates every execution of one named gate.
type gateResult struct {
	name           string
	passed, failed int
	detail         string // the first failure's detail, else the last pass's
}

type opCount struct{ attempted, failed int64 }

func newReport() *report {
	return &report{
		metrics: make(map[string]metric),
		counts:  make(map[string]int),
		ops:     make(map[string]*opCount),
	}
}

// set records a metric; n is its sample count (1 for a single measurement
// or an exact count).
func (r *report) set(name string, v float64, n int) {
	unit, ok := metricUnit(name)
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	r.mu.Lock()
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.counts[name] = n
	r.mu.Unlock()
}

// gate records one correctness check; a failed gate is also a failed
// operation of kind "gate", so it shows in the error rate.
func (r *report) gate(name string, ok bool, detail string) {
	r.mu.Lock()
	var g *gateResult
	for _, x := range r.gates {
		if x.name == name {
			g = x
		}
	}
	if g == nil {
		g = &gateResult{name: name}
		r.gates = append(r.gates, g)
	}
	if g.failed == 0 {
		g.detail = detail
	}
	if ok {
		g.passed++
	} else {
		g.failed++
	}
	r.mu.Unlock()
	var err error
	if !ok {
		err = fmt.Errorf("gate %s: %s", name, detail)
	}
	r.op("gate", err)
}

// op counts one attempted operation of kind, failed if err != nil.
func (r *report) op(kind string, err error) {
	r.mu.Lock()
	c := r.ops[kind]
	if c == nil {
		c = &opCount{}
		r.ops[kind] = c
	}
	c.attempted++
	if err != nil {
		c.failed++
	}
	r.mu.Unlock()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", kind, err)
	}
}

func (r *report) totals() (attempted, failed int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.ops {
		attempted += c.attempted
		failed += c.failed
	}
	return attempted, failed
}

func (r *report) gatesOK() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, g := range r.gates {
		if g.failed > 0 {
			return false
		}
	}
	return len(r.gates) > 0
}

// --- samples ---------------------------------------------------------------

// quantile returns the nearest-rank p-quantile of xs (0 for no samples).
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// tailOK reports whether a p-quantile over n samples has at least ten
// samples beyond it.
func tailOK(n int, p float64) bool { return float64(n)*(1-p) >= 10-1e-9 }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// --- runtime and process ---------------------------------------------------

// rtSample is a snapshot of the runtime counters the benchmark reports
// over its timed windows.
type rtSample struct{ gcCPU, totalCPU, allocBytes float64 }

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return rtSample{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

// rtWindow accumulates runtime counter deltas over one or more timed
// windows. begin forces a collection so garbage from set-up is not
// charged to the window; end forces one so the window's own garbage is.
type rtWindow struct{ acc rtSample }

func (w *rtWindow) begin() rtSample {
	runtime.GC()
	return readRuntime()
}

func (w *rtWindow) end(start rtSample) {
	runtime.GC()
	e := readRuntime()
	w.acc.gcCPU += e.gcCPU - start.gcCPU
	w.acc.totalCPU += e.totalCPU - start.totalCPU
	w.acc.allocBytes += e.allocBytes - start.allocBytes
}

func (w *rtWindow) report(rep *report, events int64) {
	if w.acc.totalCPU > 0 {
		rep.set("runtime.gc_cpu_share", w.acc.gcCPU/w.acc.totalCPU, 1)
	}
	if events > 0 {
		rep.set("runtime.alloc_bytes_per_event", w.acc.allocBytes/float64(events), 1)
	}
}

// heapLive returns the live heap after a full collection.
func heapLive() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// allocBytes returns the cumulative heap allocation counter.
func allocBytes() float64 { return readRuntime().allocBytes }

// rssPeak samples the process's resident set every few milliseconds
// until stopped and keeps the maximum, so the peak covers the measured
// part of a run and not the input generation before it. Starting it
// returns the memory set-up freed to the OS first: otherwise whether the
// scavenger had released set-up's garbage yet would decide the peak.
type rssPeak struct {
	stop, done chan struct{}
	once       sync.Once
	peak       float64 // bytes
	n          int
	err        error
}

func startRSSPeak() *rssPeak {
	debug.FreeOSMemory()
	r := &rssPeak{stop: make(chan struct{}), done: make(chan struct{})}
	r.sample()
	go func() {
		defer close(r.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-r.stop:
				r.sample()
				return
			case <-tick.C:
				r.sample()
			}
		}
	}()
	return r
}

func (r *rssPeak) sample() {
	raw, err := os.ReadFile("/proc/self/statm")
	if err == nil {
		fields := strings.Fields(string(raw))
		if len(fields) < 2 {
			err = fmt.Errorf("short /proc/self/statm")
		} else {
			var pages float64
			pages, err = strconv.ParseFloat(fields[1], 64)
			r.peak = max(r.peak, pages*float64(os.Getpagesize()))
			r.n++
		}
	}
	if err != nil && r.err == nil {
		r.err = err
	}
}

// close stops the sampler and waits for it; it is safe to call twice.
func (r *rssPeak) close() {
	r.once.Do(func() { close(r.stop) })
	<-r.done
}

// report stops the sampler and sets peak_rss_mb.
func (r *rssPeak) report(rep *report) error {
	r.close()
	if r.err != nil {
		return fmt.Errorf("resident set: %w", r.err)
	}
	rep.set("peak_rss_mb", r.peak/(1<<20), r.n)
	return nil
}

// counter reads a process-wide counter from the program's metrics
// registry (0 if it is not registered).
func counter(name string) float64 {
	v, _ := repmetrics.Default().Value(name)
	return v
}

// counters snapshots several registry counters for a later delta.
type counters map[string]float64

func readCounters(names ...string) counters {
	c := make(counters, len(names))
	for _, n := range names {
		c[n] = counter(n)
	}
	return c
}

func (c counters) delta(name string) float64 { return counter(name) - c[name] }

// --- tracing ---------------------------------------------------------------

// span is one timed call the benchmark made into a layer. Spans of one
// request (a session, a round, a job) share Req; Parent links a span to
// the span that caused it.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// id reserves a span id, so children can name a parent that has not
// ended yet.
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// add records a finished span under a reserved id (0 reserves one).
func (t *tracer) add(id uint64, name string, parent, req uint64, start, end time.Time) {
	if t == nil {
		return
	}
	if id == 0 {
		id = t.id()
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// layerOf maps a span name ("segstore.append") to its layer ("segstore").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns each layer's self time: every span's duration minus
// the part of its interval covered by its children, summed per layer.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[uint64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		covered := unionWithin(children[s.ID], s.Start, s.End)
		out[layerOf(s.Name)] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// unionWithin measures the union of intervals clipped to [lo, hi].
func unionWithin(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}
