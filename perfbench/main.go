// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload against the real pipeline packages — fleet simulator, uploader,
// wire codec, collector, segment store, dataset, streaming analysis, ring
// routing and the HTTP query APIs — checks that every output is correct,
// and prints the workload's metrics.
//
//	perfbench --workload fleet-figures|ingest-bulk|ingest-devices \
//	    --seed N --seconds S --trace 0|1 [--work DIR]
//
// With --trace 0 it measures for S seconds and prints the workload's
// end-to-end metrics. With --trace 1 it records in-memory spans around
// every call it makes into a layer, on every other unit of work (the
// units between run untraced and give the tracing overhead), and prints
// the per-layer metrics, each layer's self time and the overhead; the
// spans are written to DIR/traces. The last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// See README.md in this directory for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	work     string // root for this run's scratch and the span files
	scratch  string // this run's private directory for stores, removed at exit
	tiny     bool   // smoke-test sizes, set only by the smoke test
	procs    int    // load goroutines and fleet workers
}

// phase is one measured execution of a workload: tr is nil when untraced.
type phase struct {
	cfg     config
	tr      *tracer
	rep     *report
	samples *samples // per-layer observations
}

// alternate returns the phase for the i-th unit of work (repeat, round or
// session): in a traced run every other unit runs untraced, so the
// tracing overhead is measured by interleaved units under the same
// conditions.
func (p *phase) alternate(i int) *phase {
	if p.tr == nil || i%2 == 0 {
		return p
	}
	q := *p
	q.tr = nil
	return &q
}

// overhead accumulates the headline cost (lower is better) of traced and
// untraced units and reports trace.overhead_pct.
type overhead struct{ traced, untraced []float64 }

func (o *overhead) add(p *phase, cost float64) {
	if p.tr != nil {
		o.traced = append(o.traced, cost)
	} else {
		o.untraced = append(o.untraced, cost)
	}
}

func (o *overhead) report(rep *report) {
	if len(o.traced) > 0 && len(o.untraced) > 0 {
		rep.set("trace.overhead_pct", 100*(median(o.traced)/median(o.untraced)-1), len(o.traced)+len(o.untraced))
	}
}

type workloadFunc func(p *phase) error

var workloads = map[string]workloadFunc{
	"fleet-figures":  runFleetFigures,
	"ingest-bulk":    runIngestBulk,
	"ingest-devices": runIngestDevices,
}

func main() {
	var cfg config
	var traceMode int
	flag.StringVar(&cfg.workload, "workload", "", "workload name")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceMode, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&cfg.work, "work", ".bench_build", "scratch directory for stores and traces")
	flag.Parse()
	cfg.procs = runtime.NumCPU()
	fn, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (traceMode != 0 && traceMode != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload fleet-figures|ingest-bulk|ingest-devices --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, _, err := run(cfg, fn, traceMode == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes one invocation and returns its result line and the
// report holding every gate and operation count.
func run(cfg config, fn workloadFunc, traced bool) (*result, *report, error) {
	if err := digestCoverage(); err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(filepath.Join(cfg.work, "work"), 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(filepath.Join(cfg.work, "work"), cfg.workload+"-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	cfg.scratch = dir

	rep := newReport()
	p := &phase{cfg: cfg, rep: rep, samples: newSamples()}
	if traced {
		p.tr = newTracer()
	}
	if err := fn(p); err != nil {
		return nil, nil, err
	}
	if traced {
		self := p.tr.selfTimes()
		for _, l := range layers {
			rep.set("self."+l+"_s", self[l].Seconds(), 1)
		}
		rep.set("trace.spans", float64(p.tr.count()), 1)
		name := fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed)
		tracePath := filepath.Join(cfg.work, "traces", name)
		if err := p.tr.write(tracePath); err != nil {
			return nil, nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("spans: %d written to %s\n", p.tr.count(), tracePath)
	}

	res := &result{Metrics: make(map[string]metric)}
	res.Attempted, res.Failed = rep.totals()
	if traced {
		for _, k := range opKinds {
			c := rep.ops[k]
			if c == nil {
				c = &opCount{}
			}
			rep.set("ops."+k+".attempted", float64(c.attempted), 1)
			rep.set("ops."+k+".failed", float64(c.failed), 1)
		}
	}
	list := endToEnd
	if traced {
		list = perLayer
	}
	var want []string
	for _, m := range list {
		want = append(want, m.name)
	}
	var missing []string
	for _, name := range want {
		m, ok := rep.metrics[name]
		if !ok {
			if !traced || !bypasses(cfg.workload, name) {
				missing = append(missing, name)
				continue
			}
			// A layer this workload bypasses: no calls, nothing measured.
			unit, _ := metricUnit(name)
			m = metric{Value: 0, Unit: unit}
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			missing = append(missing, name)
			continue
		}
		res.Metrics[name] = m
	}
	if len(missing) > 0 {
		return nil, nil, fmt.Errorf("metrics not measured: %v", missing)
	}
	printTable(rep, res)
	res.Correct = rep.gatesOK() && res.Failed == 0
	return res, rep, nil
}

// printTable writes the human-readable summary: each printed metric with
// its unit and sample count, every gate, and the operation accounting.
func printTable(rep *report, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("metric %-34s %14.6g %-9s n=%d\n", n, m.Value, m.Unit, rep.counts[n])
	}
	for _, g := range rep.gates {
		status := "ok"
		if g.failed > 0 {
			status = "FAILED"
		}
		fmt.Printf("gate   %-34s %s passed=%d failed=%d %s\n", g.name, status, g.passed, g.failed, g.detail)
	}
	kinds := make([]string, 0, len(rep.ops))
	for k := range rep.ops {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		c := rep.ops[k]
		fmt.Printf("ops    %-34s attempted=%d failed=%d\n", k, c.attempted, c.failed)
	}
	rate := 0.0
	if res.Attempted > 0 {
		rate = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Printf("error_rate %.6g (%d/%d)\n", rate, res.Failed, res.Attempted)
}

// window returns when a measured window of the configured length that
// starts now ends.
func (c config) window() time.Time {
	return time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
}
