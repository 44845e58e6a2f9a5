package main

import (
	"bufio"
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/trace"
)

// layerPass replays a traced phase's own batches through each storage-side
// layer's public function on its own, timing every call: the v3 codec
// (AppendBatchV3, ReadBatchAny), a fresh segment store with the phase's
// options (SegStore.Append, so seal fsyncs and checkpoints land in the
// tail), and a fresh dataset (Dataset.AppendShard, whose retained heap is
// measured after a collection). Inside the pipeline these calls run on
// collector goroutines the benchmark cannot wrap; replaying them here
// gives each layer's cost per event on exactly the run's data.
func layerPass(p *phase, batches func(yield func(*trace.Batch)), storeOpt trace.SegStoreOptions, dir string) error {
	tr, rep := p.tr, p.rep
	root := tr.id()
	rootStart := time.Now()
	defer func() { tr.add(root, "bench.layers", 0, 0, rootStart, time.Now()) }()

	dsStart, dsEnd, dsHeap := datasetPass(batches)
	tr.add(0, "dataset.append", root, 0, dsStart, dsEnd)

	// Codec: encode each batch, decode the frame back.
	var (
		events, wireBytes int64
		encNs, decNs      time.Duration
		frame             []byte
		rd                bytes.Reader
		firstErr          error
	)
	br := bufio.NewReaderSize(nil, 64<<10)
	batches(func(b *trace.Batch) {
		if firstErr != nil {
			return
		}
		t0 := time.Now()
		out, err := trace.AppendBatchV3(frame[:0], b)
		t1 := time.Now()
		tr.add(0, "wire.encode", root, 0, t0, t1)
		if err != nil {
			firstErr = err
			return
		}
		frame = out
		rd.Reset(frame)
		br.Reset(&rd)
		t2 := time.Now()
		back, _, _, err := trace.ReadBatchAny(br)
		t3 := time.Now()
		tr.add(0, "wire.decode", root, 0, t2, t3)
		if err == nil && (len(back.Events) != len(b.Events) || back.Seq != b.Seq || back.DeviceID != b.DeviceID) {
			err = fmt.Errorf("wire round trip changed batch %d/%d", b.DeviceID, b.Seq)
		}
		if err != nil {
			firstErr = err
			return
		}
		events += int64(len(b.Events))
		wireBytes += int64(len(frame))
		encNs += t1.Sub(t0)
		decNs += t3.Sub(t2)
	})
	rep.gate("wire.roundtrip", firstErr == nil, errText(firstErr))
	if firstErr != nil || events == 0 {
		return nil
	}
	per := func(d time.Duration) float64 { return float64(d) / float64(events) }
	rep.set("dataset.append_ns_per_event", per(dsEnd.Sub(dsStart)), int(events))
	rep.set("dataset.heap_bytes_per_event", dsHeap/float64(events), int(events))
	rep.set("wire.encode_ns_per_event", per(encNs), int(events))
	rep.set("wire.decode_ns_per_event", per(decNs), int(events))
	rep.set("wire.bytes_per_event", float64(wireBytes)/float64(events), int(events))

	// Store: append every batch to a fresh store with the phase's options.
	store, err := trace.OpenSegStore(filepath.Join(dir, "layer-store"), storeOpt, nil)
	if err != nil {
		return fmt.Errorf("layer pass: %w", err)
	}
	var appNs time.Duration
	var appendLat []float64
	batches(func(b *trace.Batch) {
		if err != nil {
			return
		}
		t0 := time.Now()
		err = store.Append(b)
		t1 := time.Now()
		tr.add(0, "segstore.append", root, 0, t0, t1)
		appNs += t1.Sub(t0)
		appendLat = append(appendLat, us(t1.Sub(t0)))
	})
	store.Kill()
	rep.op("replay", err)
	if err != nil {
		return nil
	}
	rep.set("segstore.append_ns_per_event", per(appNs), int(events))
	rep.set("segstore.append_p99_us", quantile(appendLat, 0.99), len(appendLat))
	return nil
}

// datasetPass appends every batch to a fresh dataset and returns when the
// appends started and ended and the live heap the dataset retains. It
// runs before anything else of the layer pass allocates, in its own
// frame, so the heap growth between the two collections is the dataset's.
func datasetPass(batches func(yield func(*trace.Batch))) (start, end time.Time, heap float64) {
	runtime.GC() // empties the sync.Pool victim caches
	base := heapLive()
	ds := trace.NewDataset()
	start = time.Now()
	batches(func(b *trace.Batch) {
		ds.AppendShard(int(b.DeviceID%uint64(ds.NumShards())), b.Events...)
	})
	end = time.Now()
	heap = heapLive() - base
	runtime.KeepAlive(ds)
	return start, end, heap
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
