package fleet

import (
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/rng"
	"repro/internal/trace"
)

// synthShards builds each worker's sink input for numDevices devices,
// split into contiguous ranges as Run splits them (device i has ID i+1).
// Device i records count(r) events, each starting at one of slots virtual
// times step apart, so a small slots value makes equal (Start, DeviceID)
// ties common. OpsExecuted carries a fleet-wide serial that tells tied
// events apart; the draws do not depend on workers, so every worker count
// sees the same events. interleave emits a worker's devices round-robin,
// one event per turn, as the shared-queue runner does; otherwise device by
// device, as the lane runner does. Either way a device's events keep their
// record order.
func synthShards(numDevices, workers int, count func(*rng.Source) int, slots int, step time.Duration, interleave bool) [][]failure.Event {
	r := rng.New(5)
	serial := 0
	shards := make([][]failure.Event, workers)
	for w := range shards {
		lo, hi := numDevices*w/workers, numDevices*(w+1)/workers
		devs := make([][]failure.Event, hi-lo)
		for i := range devs {
			for k := count(r); k > 0; k-- {
				devs[i] = append(devs[i], failure.Event{
					DeviceID:    uint64(lo + i + 1),
					Start:       time.Duration(r.Intn(slots)) * step,
					OpsExecuted: serial,
				})
				serial++
			}
		}
		var out []failure.Event
		for pending := true; pending; {
			pending = false
			for i := range devs {
				if len(devs[i]) == 0 {
					continue
				}
				take := 1
				if !interleave {
					take = len(devs[i])
				}
				out = append(out, devs[i][:take]...)
				devs[i] = devs[i][take:]
				pending = true
			}
		}
		shards[w] = out
	}
	return shards
}

// harvestShards feeds each worker's events through a local shardIO sink,
// finishes the workers, and merges them into a fresh dataset — Run's local
// harvest without the simulation.
func harvestShards(tb testing.TB, shards [][]failure.Event) *trace.Dataset {
	outs := make([]shardOut, len(shards))
	for w, events := range shards {
		var sio shardIO
		state := &shardState{}
		if err := sio.setup(&Scenario{}, state, nil, 0, &outs[w]); err != nil {
			tb.Fatal(err)
		}
		for _, e := range events {
			state.sink(e)
		}
		sio.finish(nil, &outs[w])
	}
	ds := trace.NewDataset()
	publishMerged(ds, outs)
	return ds
}

// oracleMerge is the canonical order computed the obvious way: a stable
// sort of each worker's buffer on (Start, DeviceID), so per-device record
// order breaks ties, then a merge that repeatedly takes the least head.
func oracleMerge(shards [][]failure.Event) []failure.Event {
	less := func(a, b *failure.Event) bool {
		return a.Start < b.Start || (a.Start == b.Start && a.DeviceID < b.DeviceID)
	}
	sorted := make([][]failure.Event, len(shards))
	total := 0
	for w, events := range shards {
		s := slices.Clone(events)
		sort.SliceStable(s, func(i, j int) bool { return less(&s[i], &s[j]) })
		sorted[w] = s
		total += len(s)
	}
	var out []failure.Event
	for len(out) < total {
		best := -1
		for w := range sorted {
			if len(sorted[w]) > 0 && (best < 0 || less(&sorted[w][0], &sorted[best][0])) {
				best = w
			}
		}
		out = append(out, sorted[best][0])
		sorted[best] = sorted[best][1:]
	}
	return out
}

func serials(events []failure.Event) []int {
	out := make([]int, len(events))
	for i := range events {
		out[i] = events[i].OpsExecuted
	}
	return out
}

// TestHarvestMatchesStableSortOracle checks the chunked sink, key sort and
// gather against oracleMerge on inputs real seeds never produce: many
// equal (Start, DeviceID) ties within a device and equal Starts across
// devices, lane-ordered and interleaved buffers, every worker's buffer
// longer than a chunk and not a multiple of it, over 1, 2 and 7 workers.
// The merged order must also be the same for every worker count.
func TestHarvestMatchesStableSortOracle(t *testing.T) {
	count := func(r *rng.Source) int { return 1 + r.Intn(1000) }
	var want []int
	for _, interleave := range []bool{false, true} {
		for _, workers := range []int{1, 2, 7} {
			shards := synthShards(131, workers, count, 50, time.Minute, interleave)
			for w, events := range shards {
				if len(events) <= chunkLen || len(events)%chunkLen == 0 {
					t.Fatalf("workers=%d: shard %d has %d events; want more than one chunk (%d), not a multiple",
						workers, w, len(events), chunkLen)
				}
			}
			merged := oracleMerge(shards)
			oracle := serials(merged)
			if want == nil {
				want = oracle
				var sameDevice, crossDevice int
				for i := 1; i < len(merged); i++ {
					if merged[i].Start == merged[i-1].Start {
						if merged[i].DeviceID == merged[i-1].DeviceID {
							sameDevice++
						} else {
							crossDevice++
						}
					}
				}
				if sameDevice == 0 || crossDevice == 0 {
					t.Fatalf("fixture has %d same-device and %d cross-device ties; want both", sameDevice, crossDevice)
				}
			}
			got := serials(harvestShards(t, shards).Events())
			if !slices.Equal(got, oracle) {
				i := 0
				for i < min(len(got), len(oracle)) && got[i] == oracle[i] {
					i++
				}
				t.Fatalf("interleave=%v workers=%d: merged order diverges from the oracle at event %d (merged %d, oracle %d)",
					interleave, workers, i, len(got), len(oracle))
			}
			if !slices.Equal(got, want) {
				t.Errorf("interleave=%v workers=%d: merged order differs from interleave=false workers=1", interleave, workers)
			}
		}
	}
}

// BenchmarkFleetHarvest times Run's local harvest without the simulation:
// two workers' sinks fed 300k synthetic events each, the key sort, and the
// gather into the dataset. Starts span eight months in millisecond steps,
// so, as in real runs, (Start, DeviceID) ties are rare. It reports ns and
// bytes allocated per harvested event.
func BenchmarkFleetHarvest(b *testing.B) {
	const workers, devices, perDevice = 2, 20_000, 30
	const window = 8 * 30 * 24 * time.Hour
	shards := synthShards(devices, workers, func(*rng.Source) int { return perDevice },
		int(window/time.Millisecond), time.Millisecond, false)
	events := float64(devices * perDevice)
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ds := harvestShards(b, shards); ds.Len() != devices*perDevice {
			b.Fatalf("harvested %d events, want %d", ds.Len(), devices*perDevice)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := events * float64(b.N)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/event")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/event")
}
