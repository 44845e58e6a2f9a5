package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/fleet"
	"repro/internal/trace"
)

// bulkBatch is the closed-loop batch size, the fleet shard uploaders'
// order of magnitude.
const bulkBatch = 512

// bulkStore is the store shape of `collector -store-dir -live
// -checkpoint 500ms`: default 8 MiB segments, a checkpoint every 500 ms
// (the flag's default is 2 s; a shorter cadence puts more checkpoint
// stalls in a run).
var bulkStore = trace.SegStoreOptions{Checkpoint: 500 * time.Millisecond}

// bulkInput is the closed-loop workload's input: fleet-generated events
// split across the uploaders by device, replayed as device-ID epochs up to
// a fixed event count per round (so every seed measures the same amount
// of work). Each epoch shifts every device ID by stride, a multiple of the
// uploader count, so an epoch's devices are new but stay on the same
// uploader.
type bulkInput struct {
	perUploader [][]failure.Event
	stride      uint64
	events      int64 // per round
	digest      digest
}

// batches yields uploader k's batches in send order: its devices' events
// epoch after epoch, until its share of the round's events is sent. The
// slice is reused between calls.
func (in *bulkInput) batches(k int, yield func(seq uint64, events []failure.Event)) {
	src := in.perUploader[k]
	quota := in.quota(k)
	if len(src) == 0 {
		return
	}
	seq := uint64(0)
	buf := make([]failure.Event, 0, bulkBatch)
	for e := uint64(0); quota > 0; e++ {
		for lo := 0; lo < len(src) && quota > 0; lo += bulkBatch {
			hi := min(lo+bulkBatch, len(src), lo+quota)
			buf = buf[:0]
			for _, ev := range src[lo:hi] {
				ev.DeviceID += e * in.stride
				buf = append(buf, ev)
			}
			quota -= hi - lo
			seq++
			yield(seq, buf)
		}
	}
}

// quota is uploader k's share of the round's events.
func (in *bulkInput) quota(k int) int {
	n := len(in.perUploader)
	q := int(in.events) / n
	if k < int(in.events)%n {
		q++
	}
	return q
}

// allBatches yields every uploader's batches as trace batches.
func (in *bulkInput) allBatches(yield func(*trace.Batch)) {
	for k := range in.perUploader {
		in.batches(k, func(seq uint64, events []failure.Event) {
			yield(&trace.Batch{DeviceID: uploaderID(k), Seq: seq, Events: events})
		})
	}
}

// withEvents returns the same input cut to n events per round, with the
// digest of exactly those events.
func (in *bulkInput) withEvents(n int64) *bulkInput {
	out := &bulkInput{perUploader: in.perUploader, stride: in.stride, events: n}
	for k := range out.perUploader {
		out.batches(k, func(_ uint64, events []failure.Event) {
			for i := range events {
				out.digest.add(&events[i])
			}
		})
	}
	return out
}

// uploaderID is uploader k's wire device ID, as a fleet shard uploader
// has one ID for the many devices whose events it carries.
func uploaderID(k int) uint64 { return uint64(k) + 1 }

func makeBulkInput(p *phase) (*bulkInput, fleetSample, error) {
	devices, events := 3000, int64(1_000_000)
	if p.cfg.tiny {
		devices, events = 200, 20_000
	}
	sc := fleet.Scenario{Seed: p.cfg.seed, NumDevices: devices, Workers: p.cfg.procs, MaxEventsPerDevice: deviceCap}
	res, fs, err := simulate(p, sc, 0, 0)
	if err != nil {
		return nil, fs, err
	}
	u := uint64(p.cfg.procs)
	per := make([][]failure.Event, u)
	var maxID uint64
	res.Dataset.Each(func(e *failure.Event) {
		per[e.DeviceID%u] = append(per[e.DeviceID%u], *e)
		maxID = max(maxID, e.DeviceID)
	})
	in := &bulkInput{perUploader: per, stride: (maxID/u + 1) * u}
	return in.withEvents(events), fs, nil
}

// runIngestBulk is the closed-loop ingest workload: nproc uploaders each
// send 512-event batches and wait for the ack before the next, into one
// collector with a segment store and the streaming engine on OnAdmit.
// Each round then kills the store and replays it into a fresh dataset.
// Rounds repeat, each on a fresh pipeline, for the measured window.
func runIngestBulk(p *phase) error {
	rep := p.rep
	var (
		in     *bulkInput
		setups []float64
		fleets []fleetSample
	)
	for i := 0; i < setupRepeats; i++ {
		runtime.GC() // every set-up starts from a collected heap
		t0 := time.Now()
		next, fs, err := makeBulkInput(p)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		fleets = append(fleets, fs)
		if in != nil && next.digest != in.digest {
			rep.gate("input.deterministic", false, fmt.Sprintf("set-up %d input %v != %v", i, next.digest, in.digest))
		}
		in = next
	}
	rep.gate("input.deterministic", true, fmt.Sprintf("%d set-ups, %d events, digest %v", setupRepeats, in.events, in.digest))
	rep.set("setup_s", median(setups), len(setups))
	reportFleet(rep, fleets)
	rss := startRSSPeak()
	defer rss.close()

	// Warm the codec pools, the collector, store and streaming paths with
	// one untimed, untraced round over a tenth of the events.
	warm := &phase{cfg: p.cfg, rep: rep, samples: newSamples()}
	if _, err := bulkRun(warm, in.withEvents(in.events/10), 0, nil); err != nil {
		return err
	}

	var rates, recov, flushes []float64
	var events int64
	var win rtWindow
	var cost overhead
	end := p.cfg.window()
	for r := 1; r <= 2 || time.Now().Before(end); r++ {
		u := p.alternate(r)
		rd, err := bulkRun(u, in, uint64(r), &win)
		if err != nil {
			return err
		}
		rates = append(rates, rd.rate)
		recov = append(recov, rd.recovery)
		flushes = append(flushes, rd.flushes...)
		cost.add(u, 1/rd.rate)
		events += in.events
	}
	rep.set("events_per_s", median(rates), len(rates))
	rep.set("write_p50_ms", p50(flushes), len(flushes))
	rep.set("read_p50_ms", 1000*median(recov), len(recov))
	rep.set("segstore.replay_events_per_s", float64(in.events)/median(recov), len(recov))
	win.report(rep, events)
	cost.report(rep)
	if p.tr != nil {
		p.samples.report(rep)
		if err := layerPass(p, in.allBatches, bulkStore, p.cfg.scratch); err != nil {
			return err
		}
	}
	return rss.report(rep)
}

// bulkRound is one round's end-to-end figures.
type bulkRound struct {
	rate, recovery float64
	flushes        []float64 // each 512-event flush, send to ack, in ms
}

// bulkRun runs one round on a fresh pipeline. win, when set, accumulates
// the runtime counters over the round's timed window.
func bulkRun(p *phase, in *bulkInput, req uint64, win *rtWindow) (bulkRound, error) {
	tr, rep, obs := p.tr, p.rep, p.samples
	dir := filepath.Join(p.cfg.scratch, fmt.Sprintf("bulk-%d", req))
	defer os.RemoveAll(dir)
	store, err := trace.OpenSegStore(dir, bulkStore, nil)
	if err != nil {
		return bulkRound{}, err
	}
	defer store.Kill()
	ds := trace.NewDataset()
	liveIn := analysis.LiveInput(ds)
	eng := analysis.NewStreaming(liveIn, analysis.StreamingOptions{Hint: int(in.events)})
	defer eng.Close()
	nup := len(in.perUploader)
	hook := newAdmitHook(tr, nup, eng.Ingest, func(evs []failure.Event) int {
		return int(evs[0].DeviceID % uint64(nup))
	})
	opt := trace.CollectorOptions{Store: store, OnAdmit: eng.Ingest}
	if tr != nil {
		opt.OnAdmit = hook.onAdmit
	}
	col, err := trace.NewCollectorWith("127.0.0.1:0", ds, opt)
	if err != nil {
		return bulkRound{}, err
	}
	defer col.Kill()
	before := snapshotLayers(hook, eng, col.Redirects())

	round := tr.id()
	var ws rtSample
	if win != nil {
		ws = win.begin()
	}
	flushes := make([][]float64, nup) // per uploader
	t0 := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < nup; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			u := trace.NewUploader(col.Addr(), uploaderID(k))
			u.FlushThreshold = 1 << 30 // flush only when the loop says so
			u.SetWiFi(true)
			defer u.Close()
			in.batches(k, func(_ uint64, events []failure.Event) {
				for i := range events {
					u.Record(events[i])
				}
				if tr == nil {
					start := time.Now()
					err := u.Flush()
					flushes[k] = append(flushes[k], ms(time.Since(start)))
					rep.op("flush", err)
					return
				}
				fid := tr.id()
				start := hook.begin(k, fid, req)
				err := u.Flush()
				end := time.Now()
				flushes[k] = append(flushes[k], ms(end.Sub(start)))
				rep.op("flush", err)
				hook.finish(k, fid, req, start, end, round, obs)
			})
			if u.Pending() > 0 {
				rep.op("flush", u.Flush())
			}
		}(k)
	}
	wg.Wait()
	drainErr := col.Drain(10 * time.Second)
	t1 := time.Now()
	if win != nil {
		win.end(ws)
	}
	tr.add(0, "collector.drain", round, req, t0, t1)
	if drainErr != nil {
		return bulkRound{}, fmt.Errorf("drain: %w", drainErr)
	}

	catalogue := core.Catalogue()
	live, err := settle(p, eng, liveIn, round, req, catalogue)
	if err != nil {
		return bulkRound{}, err
	}
	stored := datasetDigest(ds)
	rep.gate("ingest.stored_equals_input", stored == in.digest,
		fmt.Sprintf("stored %v, input %v", stored, in.digest))

	tk := time.Now()
	err = store.Checkpoint()
	tke := time.Now()
	rep.op("replay", err)
	tr.add(0, "segstore.checkpoint", round, req, tk, tke)
	obs.add("segstore.checkpoint_ms", ms(tke.Sub(tk)))
	col.Kill()
	store.Kill()
	if tr != nil {
		before.observe(obs, hook, eng, col.Redirects())
	}

	// Recovery: reopen the killed store as a rebooted collector would and
	// replay it into a fresh dataset.
	replayed := trace.NewDataset()
	tr0 := time.Now()
	st2, err := trace.OpenSegStore(dir, bulkStore, trace.ReplayInto(replayed))
	tr1 := time.Now()
	tr.add(0, "segstore.recover", round, req, tr0, tr1)
	rep.op("replay", err)
	if err != nil {
		return bulkRound{}, err
	}
	st2.Kill()
	got := datasetDigest(replayed)
	rep.gate("recovery.replay_equals_stored", got == stored, fmt.Sprintf("replayed %v, stored %v", got, stored))

	batchFiguresGate(p, liveIn, live, round, req, catalogue)
	tr.add(round, "bench.round", 0, req, t0, time.Now())
	return bulkRound{
		rate:     float64(in.events) / t1.Sub(t0).Seconds(),
		recovery: tr1.Sub(tr0).Seconds(),
		flushes:  slices.Concat(flushes...),
	}, nil
}

// liveDocs are the streaming engine's rendered documents after Sync.
type liveDocs struct{ figures, claims []byte }

// settle waits for the streaming engine to apply everything admitted,
// resyncs it if it shed, and renders the live documents.
func settle(p *phase, eng *analysis.Streaming, in analysis.Input, parent, req uint64, catalogue []analysis.ModelCatalogueEntry) (liveDocs, error) {
	tr, rep, obs := p.tr, p.rep, p.samples
	t0 := time.Now()
	err := eng.WaitIdle(time.Minute)
	eng.Sync(in)
	t1 := time.Now()
	tr.add(0, "streaming.catchup", parent, req, t0, t1)
	obs.add("streaming.catchup_ms", ms(t1.Sub(t0)))
	if err != nil {
		return liveDocs{}, err
	}
	fig, err := eng.FiguresJSON(catalogue)
	var claims []byte
	if err == nil {
		claims, err = eng.ClaimsJSON()
	}
	t2 := time.Now()
	tr.add(0, "streaming.render", parent, req, t1, t2)
	obs.add("streaming.render_ms", ms(t2.Sub(t1)))
	rep.op("figures", err)
	return liveDocs{fig, claims}, err
}

// batchFiguresGate renders the figures and claims with a batch pass over
// the final dataset and checks the live documents are byte-equal.
func batchFiguresGate(p *phase, in analysis.Input, live liveDocs, parent, req uint64, catalogue []analysis.ModelCatalogueEntry) {
	tr, rep, obs := p.tr, p.rep, p.samples
	t0 := time.Now()
	pass := analysis.NewPass(in)
	t1 := time.Now()
	fig, err := pass.FiguresJSON(catalogue)
	var claims []byte
	if err == nil {
		claims, err = pass.ClaimsJSON()
	}
	t2 := time.Now()
	tr.add(0, "analysis.pass", parent, req, t0, t1)
	tr.add(0, "analysis.render", parent, req, t1, t2)
	obs.add("analysis.pass_s", t1.Sub(t0).Seconds())
	obs.add("analysis.render_s", t2.Sub(t1).Seconds())
	rep.op("figures", err)
	rep.gate("live.equals_batch", err == nil && bytes.Equal(fig, live.figures) && bytes.Equal(claims, live.claims),
		fmt.Sprintf("figures %d/%d bytes, claims %d/%d bytes", len(live.figures), len(fig), len(live.claims), len(claims)))
}
