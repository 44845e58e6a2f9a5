package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/fleet"
)

// setupRepeats is how many times each workload sets up; setup_s is the
// median. Single set-ups vary by about 15% on a shared two-core host,
// also within one process; the median of nine keeps setup_s's spread
// between runs inside its bound.
const setupRepeats = 9

// deviceCap caps each simulated device's events in every workload's fleet
// (Scenario.MaxEventsPerDevice). The simulator, like the paper's fleet,
// has heavy-tail devices with 10^5 events: uncapped, one such device
// holds up to a third of a seed's events, and the metrics would measure
// which seed ran more than the pipeline.
const deviceCap = 2000

// fleetSample is one timed fleet.Run.
type fleetSample struct {
	events int
	wall   time.Duration
	allocs float64 // bytes allocated during the run
}

// simulate runs the fleet simulator once, traced as a fleet.run span.
func simulate(p *phase, sc fleet.Scenario, parent, req uint64) (*fleet.Result, fleetSample, error) {
	a0 := allocBytes()
	t0 := time.Now()
	res, err := fleet.Run(sc)
	t1 := time.Now()
	a1 := allocBytes()
	p.tr.add(0, "fleet.run", parent, req, t0, t1)
	p.rep.op("fleet_run", err)
	if err != nil {
		return nil, fleetSample{}, err
	}
	return res, fleetSample{events: res.Dataset.Len(), wall: t1.Sub(t0), allocs: a1 - a0}, nil
}

// reportFleet sets the fleet layer metrics from the timed runs.
func reportFleet(rep *report, runs []fleetSample) {
	var walls, allocs []float64
	for _, r := range runs {
		walls = append(walls, r.wall.Seconds())
		if r.events > 0 {
			allocs = append(allocs, r.allocs/float64(r.events))
		}
	}
	if len(walls) > 0 {
		rep.set("fleet.run_s", median(walls), len(walls))
	}
	if len(allocs) > 0 {
		rep.set("fleet.alloc_bytes_per_event", median(allocs), len(allocs))
	}
}

// runFleetFigures is the batch reproduction job: simulate a seeded fleet
// in memory, then one analysis pass rendering the figures and claims
// documents, repeated for the measured window. It loads the simulator
// and the batch analysis engine and nothing of the ingest path.
func runFleetFigures(p *phase) error {
	cfg, rep := p.cfg, p.rep
	devices := 20000
	if cfg.tiny {
		devices = 300
	}
	sc := fleet.Scenario{Seed: cfg.seed, NumDevices: devices, Workers: cfg.procs, MaxEventsPerDevice: deviceCap}
	catalogue := core.Catalogue()

	// Set-up: normalize the scenario and warm the simulator and the
	// analysis engine (calibration tables, catalogue, code paths) on a
	// tenth of the fleet, same seed and window. Set-up has to take long
	// enough to time steadily: a 200-device, one-month warm-up takes
	// 0.1 s, and its time varies by a third between runs.
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC() // every set-up starts from a collected heap
		t0 := time.Now()
		warm := fleet.Scenario{Seed: cfg.seed, NumDevices: devices / 10, Workers: cfg.procs, MaxEventsPerDevice: deviceCap}
		res, err := fleet.Run(warm)
		if err != nil {
			return fmt.Errorf("warm-up fleet: %w", err)
		}
		pass := analysis.NewPass(analysis.FromResult(res))
		if _, err := pass.FiguresJSON(catalogue); err != nil {
			return fmt.Errorf("warm-up figures: %w", err)
		}
		sc = sc.Normalized()
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.set("setup_s", median(setups), len(setups))
	rss := startRSSPeak()
	defer rss.close()

	var (
		runs                     []fleetSample
		rates, figs, passes, rnd []float64
		firstFig, firstClaims    []byte
		firstDigest              digest
		mismatch                 []string
		win                      rtWindow
		events                   int64
		cost                     overhead
	)
	end := p.cfg.window()
	for i := 0; i < 2 || time.Now().Before(end); i++ {
		req := uint64(i + 1)
		u := p.alternate(i)
		tr := u.tr
		job := tr.id()
		start := win.begin()
		jt := time.Now()
		res, fs, err := simulate(u, sc, job, req)
		if err != nil {
			win.end(start)
			continue
		}
		t1 := time.Now()
		pass := analysis.NewPass(analysis.FromResult(res))
		t2 := time.Now()
		fig, err := pass.FiguresJSON(catalogue)
		var claims []byte
		if err == nil {
			claims, err = pass.ClaimsJSON()
		}
		t3 := time.Now()
		win.end(start)
		tr.add(0, "analysis.pass", job, req, t1, t2)
		tr.add(0, "analysis.render", job, req, t2, t3)
		tr.add(job, "bench.job", 0, req, jt, t3)
		rep.op("figures", err)
		if err != nil {
			continue
		}
		n := fs.events
		events += int64(n)
		runs = append(runs, fs)
		rates = append(rates, float64(n)/fs.wall.Seconds())
		cost.add(u, fs.wall.Seconds()/float64(n))
		figs = append(figs, t3.Sub(t1).Seconds())
		passes = append(passes, t2.Sub(t1).Seconds())
		rnd = append(rnd, t3.Sub(t2).Seconds())

		d := datasetDigest(res.Dataset)
		if firstFig == nil {
			firstFig, firstClaims, firstDigest = fig, claims, d
		} else {
			if !bytes.Equal(fig, firstFig) || !bytes.Equal(claims, firstClaims) {
				mismatch = append(mismatch, fmt.Sprintf("repeat %d figures/claims differ", i))
			}
			if d != firstDigest {
				mismatch = append(mismatch, fmt.Sprintf("repeat %d dataset %v != %v", i, d, firstDigest))
			}
		}
		if !res.Integrity.Clean() {
			mismatch = append(mismatch, fmt.Sprintf("repeat %d: %d devices wedged", i, res.Integrity.Wedged))
		}
	}
	if len(rates) < 2 {
		return errors.New("fewer than two fleet runs succeeded")
	}
	rep.gate("figures.deterministic", len(mismatch) == 0,
		fmt.Sprintf("%d repeats, figures sha256 %x, dataset %v %v", len(rates), sha256.Sum256(firstFig), firstDigest, mismatch))

	walls := make([]float64, len(runs))
	for i, r := range runs {
		walls[i] = ms(r.wall)
	}
	rep.set("events_per_s", median(rates), len(rates))
	rep.set("write_p50_ms", median(walls), len(walls))
	rep.set("read_p50_ms", 1000*median(figs), len(figs))
	rep.set("analysis.pass_s", median(passes), len(passes))
	rep.set("analysis.render_s", median(rnd), len(rnd))
	reportFleet(rep, runs)
	win.report(rep, events)
	cost.report(rep)
	return rss.report(rep)
}
