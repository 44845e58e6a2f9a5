package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/fleet"
	"repro/internal/trace"
	"repro/internal/trace/ring"
)

// devicesRates are the open-loop generators' offered rates. Sessions are
// paced by their events: a session is due when the events before it
// have arrived at the offered event rate (about two events per session,
// so roughly half as many sessions per second), which fixes the work of
// a run for every seed. The full-size event rate is about an eighth of
// the pipeline's closed-loop session capacity (README.md), so session
// latency measures a session's cost rather than a queue.
type devicesRates struct {
	events, figures, segments float64 // per second
	warm                      int     // untimed warm-up sessions
	devices                   int     // fleet size the sessions come from
	// store seals small segments so the merged segment queries have
	// sealed segments to read while ingest runs (the default 8 MiB would
	// not seal within a run), and checkpoints every 500 ms as bulkStore.
	store trace.SegStoreOptions
}

func ratesFor(cfg config) devicesRates {
	if cfg.tiny {
		return devicesRates{events: 600, figures: 20, segments: 5, warm: 200, devices: 150,
			store: trace.SegStoreOptions{SegmentSize: 4 << 10, Checkpoint: 500 * time.Millisecond}}
	}
	return devicesRates{events: 2000, figures: 35, segments: 5, warm: 3000, devices: 3000,
		store: trace.SegStoreOptions{SegmentSize: 64 << 10, Checkpoint: 500 * time.Millisecond}}
}

// devSession is one device's upload session: its events of one virtual
// day, uploaded through a fresh connection.
type devSession struct {
	device uint64
	events []failure.Event
}

type devicesInput struct {
	warm, timed []devSession
	events      int64
	digest      digest
}

// makeDevicesInput simulates the fleet and cuts its events into daily
// sessions in a seeded order: day by day, devices shuffled within a day.
// The warm-up sessions come first, then timed sessions up to the run's
// event budget. When the run needs more sessions than the fleet
// produced, the schedule repeats with every device ID shifted past the
// fleet's (a new epoch of devices).
func makeDevicesInput(p *phase, r devicesRates) (*devicesInput, fleetSample, error) {
	sc := fleet.Scenario{Seed: p.cfg.seed, NumDevices: r.devices, Workers: p.cfg.procs, MaxEventsPerDevice: deviceCap}
	res, fs, err := simulate(p, sc, 0, 0)
	if err != nil {
		return nil, fs, err
	}
	type key struct{ device, day uint64 }
	index := make(map[key]int)
	var base []devSession
	var days []uint64
	var maxID uint64
	res.Dataset.Each(func(e *failure.Event) {
		k := key{e.DeviceID, uint64(e.Start / (24 * time.Hour))}
		i, ok := index[k]
		if !ok {
			i = len(base)
			index[k] = i
			base = append(base, devSession{device: e.DeviceID})
			days = append(days, k.day)
		}
		base[i].events = append(base[i].events, *e)
		maxID = max(maxID, e.DeviceID)
	})
	if len(base) == 0 {
		return nil, fs, errors.New("fleet produced no sessions")
	}
	order := make([]int, len(base))
	rank := make([]uint64, len(base))
	for i := range order {
		order[i] = i
		rank[i] = mix(uint64(p.cfg.seed) ^ mix(base[i].device) ^ days[i]<<40)
	}
	sort.Slice(order, func(a, b int) bool {
		i, j := order[a], order[b]
		if days[i] != days[j] {
			return days[i] < days[j]
		}
		return rank[i] < rank[j]
	})

	budget := int64(r.events * p.cfg.seconds) // events in the timed sessions
	in := &devicesInput{}
	var all []devSession
	var timed int64
	stride := maxID + 1
	for epoch := uint64(0); timed < budget; epoch++ {
		for _, i := range order {
			if timed >= budget {
				break
			}
			s := base[i]
			if epoch > 0 {
				s.device += epoch * stride
				s.events = append([]failure.Event(nil), s.events...)
				for j := range s.events {
					s.events[j].DeviceID = s.device
				}
			}
			for j := range s.events {
				in.digest.add(&s.events[j])
			}
			in.events += int64(len(s.events))
			if len(all) >= r.warm {
				timed += int64(len(s.events))
			}
			all = append(all, s)
		}
	}
	in.warm, in.timed = all[:r.warm], all[r.warm:]
	return in, fs, nil
}

// devPipeline is the ingest-devices system under test: a two-member
// collector fleet behind a consistent-hash ring with the streaming
// engine on OnAdmit, and one HTTP server with the live and merged
// segment query APIs (the `cellserve -live -fleet 2` shape).
type devPipeline struct {
	dir    string
	ds     *trace.Dataset
	liveIn analysis.Input
	eng    *analysis.Streaming
	fc     *ring.FleetCollector
	router trace.TargetRouter
	timed  *tracedRouter // the router wrapper in a traced run
	hook   *admitHook
	srv    *http.Server
	served chan struct{}
	base   string
	client *http.Client
	ups    map[uint64]*trace.Uploader
	segs   []string // sealed segment query paths
}

func startDevices(p *phase, dir string, hint int, store trace.SegStoreOptions) (*devPipeline, error) {
	d := &devPipeline{dir: dir, ds: trace.NewDataset(), ups: make(map[uint64]*trace.Uploader)}
	d.liveIn = analysis.LiveInput(d.ds)
	d.eng = analysis.NewStreaming(d.liveIn, analysis.StreamingOptions{Hint: hint})
	d.hook = newAdmitHook(p.tr, 1, d.eng.Ingest, func([]failure.Event) int { return 0 })
	copt := trace.CollectorOptions{OnAdmit: d.eng.Ingest}
	if p.tr != nil {
		copt.OnAdmit = d.hook.onAdmit
	}
	fc, err := ring.StartFleet(2, d.ds, ring.FleetOptions{
		Seed: p.cfg.seed, Dir: dir, Collector: copt, Store: store,
	})
	if err != nil {
		d.eng.Close()
		return nil, err
	}
	d.fc = fc
	d.router = fc.Router()
	if p.tr != nil {
		d.timed = &tracedRouter{r: fc.Router(), hook: d.hook}
		d.router = d.timed
	}

	mux := http.NewServeMux()
	analysis.NewLiveAPI(d.eng, core.Catalogue()).Routes(mux)
	trace.NewMergeAPI(fc.Sources).Routes(mux)
	var h http.Handler = mux
	if p.tr != nil {
		h = renderTimer(p, mux)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.close()
		return nil, err
	}
	d.base = "http://" + ln.Addr().String()
	d.srv = &http.Server{Handler: h}
	d.served = make(chan struct{})
	go func() {
		defer close(d.served)
		d.srv.Serve(ln)
	}()
	// One keep-alive connection carries every query.
	d.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	return d, nil
}

// renderTimer wraps the query server to time the live-figures render on
// the server side, as a child of the client's query span.
func renderTimer(p *phase, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		next.ServeHTTP(w, r)
		t1 := time.Now()
		if r.URL.Path != "/api/live/figures" {
			return
		}
		parent, _ := strconv.ParseUint(r.Header.Get("X-Bench-Span"), 10, 64)
		p.tr.add(0, "streaming.render", parent, 0, t0, t1)
		p.samples.add("streaming.render_ms", ms(t1.Sub(t0)))
	})
}

// close stops everything the pipeline started and waits for it.
func (d *devPipeline) close() {
	for _, u := range d.ups {
		u.Close()
	}
	if d.srv != nil {
		d.srv.Close()
		<-d.served
	}
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	if d.fc != nil {
		d.fc.Close()
	}
	d.eng.Close()
	os.RemoveAll(d.dir)
}

// uploader returns the device's uploader, created on its first session.
// Sequence numbers persist across the device's sessions.
func (d *devPipeline) uploader(device uint64) *trace.Uploader {
	u := d.ups[device]
	if u == nil {
		u = trace.NewUploader(d.router.Target(device), device)
		u.FlushThreshold = 1 << 30 // a session flushes once, explicitly
		u.SetRouter(d.router)
		u.SetWiFi(true)
		d.ups[device] = u
	}
	return u
}

// session uploads one session through a fresh connection; flush makes
// the upload (a traced run wraps Uploader.Flush in spans).
func (d *devPipeline) session(s devSession, flush func(*trace.Uploader) error) error {
	u := d.uploader(s.device)
	for i := range s.events {
		u.Record(s.events[i])
	}
	err := flush(u)
	u.Close()
	return err
}

// waitUntil blocks until t: it sleeps while the wait is long, then
// yields in a loop, because a timer sleep wakes up to a millisecond late
// and the session schedule is sub-millisecond. (Sleeping in nanosleep
// instead, tens of microseconds late, made session latency worse and
// noisier: the woken generator then waits for a processor.)
func waitUntil(t time.Time) {
	if d := time.Until(t); d > 3*time.Millisecond {
		time.Sleep(d - 3*time.Millisecond)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// runIngestDevices is the open-loop workload: distinct devices each
// upload one session per virtual day with events, through a fresh
// connection each time, on a fixed schedule, to a two-member collector
// fleet; one more connection queries live figures and merged segments at
// a fixed rate during ingest.
func runIngestDevices(p *phase) error {
	cfg, tr, rep, obs := p.cfg, p.tr, p.rep, p.samples
	r := ratesFor(cfg)
	var (
		in     *devicesInput
		d      *devPipeline
		setups []float64
		fleets []fleetSample
	)
	defer func() {
		if d != nil {
			d.close()
		}
	}()
	for i := 0; i < setupRepeats; i++ {
		runtime.GC() // every set-up starts from a collected heap
		t0 := time.Now()
		next, fs, err := makeDevicesInput(p, r)
		if err != nil {
			return err
		}
		if d != nil {
			d.close()
		}
		d, err = startDevices(p, filepath.Join(cfg.scratch, fmt.Sprintf("devices-%d", i)), int(next.events), r.store)
		if err != nil {
			return err
		}
		for _, s := range next.warm {
			rep.op("session", d.session(s, (*trace.Uploader).Flush))
		}
		for j := 0; j < 10; j++ {
			_, err := d.get("/api/live/figures", 0)
			rep.op("query", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		fleets = append(fleets, fs)
		if in != nil && next.digest != in.digest {
			rep.gate("input.deterministic", false, fmt.Sprintf("set-up %d input %v != %v", i, next.digest, in.digest))
		}
		in = next
	}
	rep.gate("input.deterministic", true, fmt.Sprintf("%d set-ups, %d sessions, %d events, digest %v",
		setupRepeats, len(in.warm)+len(in.timed), in.events, in.digest))
	rep.set("setup_s", median(setups), len(setups))
	reportFleet(rep, fleets)
	rss := startRSSPeak()
	defer rss.close()
	for _, src := range d.fc.Sources() {
		for _, seg := range src.Store.Segments() {
			if seg.Sealed {
				d.segs = append(d.segs, fmt.Sprintf("/api/segments/events?collector=%s&id=%d&limit=100", src.Name, seg.ID))
			}
		}
	}
	rep.gate("segments.sealed_after_warmup", len(d.segs) > 0, fmt.Sprintf("%d sealed segments", len(d.segs)))
	if len(d.segs) == 0 {
		return errors.New("no sealed segment to query")
	}
	before := snapshotLayers(d.hook, d.eng, d.fc.Redirects())

	// Both generators run on one schedule of the same length.
	var timedEvents int
	for _, s := range in.timed {
		timedEvents += len(s.events)
	}
	span := time.Duration(float64(timedEvents) / r.events * float64(time.Second))
	queryRate := r.figures + r.segments
	queries := int(queryRate * span.Seconds())
	segEvery := int(queryRate / r.segments) // every segEvery-th query reads a segment
	var (
		sessLat, figLat, lag []float64
		qlag                 []float64
		win                  rtWindow
		wg                   sync.WaitGroup
		cost                 overhead
	)
	ws := win.begin()
	t0 := time.Now().Add(time.Millisecond)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < queries; i++ {
			due := t0.Add(time.Duration(float64(i) / queryRate * float64(time.Second)))
			waitUntil(due)
			start := time.Now()
			path := "/api/live/figures"
			seg := i%segEvery == segEvery-1
			if seg {
				path = d.segs[(i/segEvery)%len(d.segs)]
			}
			qid := tr.id()
			_, err := d.get(path, qid)
			end := time.Now()
			rep.op("query", err)
			qlag = append(qlag, ms(start.Sub(due)))
			name := "http.live_figures"
			if seg {
				name = "http.segments"
				obs.add("http.segments_ms", ms(end.Sub(start)))
			} else {
				figLat = append(figLat, ms(end.Sub(due)))
			}
			tr.add(qid, name, 0, uint64(i+1)<<32, start, end)
		}
	}()
	sent := 0 // events in the sessions before this one
	var lastAck time.Time
	for i, s := range in.timed {
		due := t0.Add(time.Duration(float64(sent) / r.events * float64(time.Second)))
		sent += len(s.events)
		waitUntil(due)
		start := time.Now()
		req := uint64(i + 1)
		u := p.alternate(i)
		var err error
		if u.tr == nil {
			err = d.session(s, (*trace.Uploader).Flush)
		} else {
			sid := tr.id()
			err = d.session(s, func(up *trace.Uploader) error {
				fid := tr.id()
				fStart := d.hook.begin(0, fid, req)
				err := up.Flush()
				d.hook.finish(0, fid, req, fStart, time.Now(), sid, obs)
				return err
			})
			tr.add(sid, "bench.session", 0, req, start, time.Now())
		}
		end := time.Now()
		lastAck = end
		rep.op("session", err)
		sessLat = append(sessLat, ms(end.Sub(due)))
		lag = append(lag, ms(start.Sub(due)))
		cost.add(u, ms(end.Sub(due)))
	}
	wg.Wait()
	drainStart := time.Now()
	drainErr := d.fc.Drain(10 * time.Second)
	win.end(ws)
	// The peak covers the serving window, not the verification below.
	if err := rss.report(rep); err != nil {
		return err
	}
	tr.add(0, "collector.drain", 0, 0, drainStart, time.Now())
	if drainErr != nil {
		return fmt.Errorf("drain: %w", drainErr)
	}

	catalogue := core.Catalogue()
	live, err := settle(p, d.eng, d.liveIn, 0, 0, catalogue)
	if err != nil {
		return err
	}
	stored := datasetDigest(d.ds)
	rep.gate("ingest.stored_equals_input", stored == in.digest,
		fmt.Sprintf("stored %v, input %v", stored, in.digest))
	srcs := d.fc.Sources()
	for _, src := range srcs {
		tk := time.Now()
		err := src.Store.Checkpoint()
		tke := time.Now()
		rep.op("replay", err)
		tr.add(0, "segstore.checkpoint", 0, 0, tk, tke)
		obs.add("segstore.checkpoint_ms", ms(tke.Sub(tk)))
		src.Store.Kill()
	}
	if tr != nil {
		before.observe(obs, d.hook, d.eng, d.fc.Redirects())
	}

	// Every member's killed store replays to exactly what was stored.
	replayed := trace.NewDataset()
	tr0 := time.Now()
	for _, src := range srcs {
		st, err := trace.OpenSegStore(src.Store.Dir(), trace.SegStoreOptions{ReadOnly: true}, trace.ReplayInto(replayed))
		rep.op("replay", err)
		if err != nil {
			return err
		}
		st.Close()
	}
	tr1 := time.Now()
	tr.add(0, "segstore.recover", 0, 0, tr0, tr1)
	got := datasetDigest(replayed)
	rep.gate("recovery.replay_equals_stored", got == stored, fmt.Sprintf("replayed %v, stored %v", got, stored))
	batchFiguresGate(p, d.liveIn, live, 0, 0, catalogue)

	rep.set("events_per_s", float64(timedEvents)/lastAck.Sub(t0).Seconds(), len(sessLat))
	rep.set("write_p50_ms", p50(sessLat), len(sessLat))
	rep.set("read_p50_ms", p50(figLat), len(figLat))
	rep.set("bench.session_p99_ms", p99(sessLat), len(sessLat))
	rep.set("bench.query_p99_ms", p99(figLat), len(figLat))
	for _, c := range []struct {
		name string
		n    int
	}{{"bench.session_p99_ms", len(sessLat)}, {"bench.query_p99_ms", len(figLat)}} {
		if !tailOK(c.n, 0.99) {
			fmt.Fprintf(os.Stderr, "perfbench: %s has %d samples, fewer than ten beyond p99\n", c.name, c.n)
		}
	}
	for _, x := range append(lag, qlag...) {
		obs.add("generator.lag_ms", x)
	}
	if d.timed != nil && d.timed.calls.Load() > 0 {
		calls := d.timed.calls.Load()
		rep.set("ring.target_ns", float64(d.timed.ns.Load())/float64(calls), int(calls))
	}
	if tr1.Sub(tr0) > 0 {
		rep.set("segstore.replay_events_per_s", float64(got.n)/tr1.Sub(tr0).Seconds(), 1)
	}
	win.report(rep, int64(timedEvents))
	if tr != nil {
		obs.report(rep)
		batches := func(yield func(*trace.Batch)) {
			seq := make(map[uint64]uint64)
			for _, s := range append(in.warm[:len(in.warm):len(in.warm)], in.timed...) {
				seq[s.device]++
				yield(&trace.Batch{DeviceID: s.device, Seq: seq[s.device], Events: s.events})
			}
		}
		if err := layerPass(p, batches, r.store, cfg.scratch); err != nil {
			return err
		}
	}
	cost.report(rep)
	return nil
}

// get issues one query on the pipeline's single connection and reads the
// whole body; a non-200 answer is an error.
func (d *devPipeline) get(path string, span uint64) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, d.base+path, nil)
	if err != nil {
		return nil, err
	}
	if span != 0 {
		req.Header.Set("X-Bench-Span", strconv.FormatUint(span, 10))
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}
