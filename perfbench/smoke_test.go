package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"testing"
)

// benchmarkFile is the subset of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// gatesByWorkload are the correctness gates each workload must execute in
// every run (wire.roundtrip only runs in traced mode).
var gatesByWorkload = map[string][]string{
	"fleet-figures":  {"figures.deterministic"},
	"ingest-bulk":    {"input.deterministic", "ingest.stored_equals_input", "recovery.replay_equals_stored", "live.equals_batch"},
	"ingest-devices": {"input.deterministic", "segments.sealed_after_warmup", "ingest.stored_equals_input", "recovery.replay_equals_stored", "live.equals_batch"},
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDeclaredMetrics keeps BENCHMARK.json and the program's metric
// tables in step: the end-to-end list is exactly what an untraced run
// prints, the per-layer list exactly what a traced run prints, and every
// unit agrees.
func TestDeclaredMetrics(t *testing.T) {
	b := loadBenchmarkFile(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v, the program implements %d workloads", names, len(workloads))
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json declares %d end-to-end metrics, an untraced run prints %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if i < len(endToEnd) && (endToEnd[i].name != m.Name || endToEnd[i].unit != m.Unit) {
			t.Errorf("end-to-end metric %d: %s [%s] in BENCHMARK.json, %s [%s] printed", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json declares %d per-layer metrics, a traced run prints %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if i < len(perLayer) && (perLayer[i].name != m.Name || perLayer[i].unit != m.Unit) {
			t.Errorf("per-layer metric %d: %s [%s] in BENCHMARK.json, %s [%s] printed", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestSmoke runs every workload at tiny size, untraced and traced, and
// checks that each prints exactly its declared metrics with their units,
// that every correctness gate executed and passed, and that nothing
// failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := loadBenchmarkFile(t)
	units := map[string]string{}
	for _, m := range b.EndToEnd {
		units[m.Name] = m.Unit
	}
	var e2eNames, layerNames []string
	for _, m := range b.EndToEnd {
		e2eNames = append(e2eNames, m.Name)
	}
	for _, m := range b.PerLayer {
		units[m.Name] = m.Unit
		layerNames = append(layerNames, m.Name)
	}
	for _, w := range b.Workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w.Name, seed: 3, seconds: 1, work: t.TempDir(), tiny: true, procs: runtime.NumCPU()}
			res, rep, err := run(cfg, workloads[w.Name], traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", w.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := e2eNames
			if traced {
				want = layerNames
			}
			var got []string
			for name, m := range res.Metrics {
				got = append(got, name)
				if m.Unit != units[name] {
					t.Errorf("%s: metric %s printed with unit %q, declared %q", w.Name, name, m.Unit, units[name])
				}
				if !traced && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s is %v, not positive", w.Name, name, m.Value)
				}
			}
			sort.Strings(got)
			sorted := append([]string(nil), want...)
			sort.Strings(sorted)
			if len(got) != len(sorted) {
				t.Errorf("%s traced=%v: printed %v, want %v", w.Name, traced, got, sorted)
			} else {
				for i := range got {
					if got[i] != sorted[i] {
						t.Errorf("%s traced=%v: printed %v, want %v", w.Name, traced, got, sorted)
						break
					}
				}
			}
			if traced {
				for name := range rep.metrics {
					if bypasses(w.Name, name) {
						t.Errorf("%s: %s is measured, but its layer is listed as bypassed", w.Name, name)
					}
				}
			}
			gates := gatesByWorkload[w.Name]
			if traced && w.Name != "fleet-figures" {
				gates = append(gates[:len(gates):len(gates)], "wire.roundtrip")
			}
			ran := map[string]*gateResult{}
			for _, g := range rep.gates {
				ran[g.name] = g
			}
			for _, name := range gates {
				g := ran[name]
				if g == nil || g.passed == 0 || g.failed != 0 {
					t.Errorf("%s traced=%v: gate %s did not run and pass: %+v", w.Name, traced, name, g)
				}
			}
		}
	}
}
