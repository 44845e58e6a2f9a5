// Package netprobe implements Android-MOD's network-state probing component
// (§2.2) against a simulated host network stack.
//
// When a suspicious Data_Stall is detected, the prober simultaneously sends
// an ICMP message to the local loopback address, plus an ICMP message and a
// DNS query to each assigned DNS server. The reply pattern classifies the
// episode:
//
//   - loopback ICMP timeout → the problem is on the system side (erroneous
//     firewall configuration, problematic proxy settings, modem driver
//     failure) — a false positive;
//   - all DNS queries time out and the DNS-server ICMPs time out too → a
//     true network-side stall;
//   - only the DNS queries time out → the DNS resolution service is
//     unavailable — also a false positive;
//   - everything answers → the stall has been fixed.
//
// Timeouts are 1 s for ICMP and 5 s for DNS, so a probing round costs at
// most five seconds and the duration measurement error is ≤ 5 s (versus up
// to a minute for vanilla Android). Past 1200 s of stall the timeouts are
// doubled every round to bound overhead, and once either timeout exceeds
// one minute the prober reverts to Android's legacy one-minute estimation.
package netprobe

import (
	"time"

	"repro/internal/simclock"
)

// Condition is the simulated host/network state underlying an apparent
// stall.
type Condition uint8

// Host conditions.
const (
	Healthy Condition = iota
	NetworkDown
	FirewallMisconfig
	ProxyProblem
	ModemDriverFailure
	DNSUnavailable
)

func (c Condition) String() string {
	switch c {
	case Healthy:
		return "healthy"
	case NetworkDown:
		return "network-down"
	case FirewallMisconfig:
		return "firewall-misconfig"
	case ProxyProblem:
		return "proxy-problem"
	case ModemDriverFailure:
		return "modem-driver-failure"
	case DNSUnavailable:
		return "dns-unavailable"
	default:
		return "unknown"
	}
}

// SystemSide reports whether the condition blocks even loopback delivery.
func (c Condition) SystemSide() bool {
	return c == FirewallMisconfig || c == ProxyProblem || c == ModemDriverFailure
}

// SimHost simulates the device's network stack as seen by the prober.
type SimHost struct {
	clock *simclock.Scheduler
	cond  Condition
	// NumDNSServers is the number of assigned DNS servers (>=1).
	NumDNSServers int
	// Latencies for healthy replies.
	LoopbackRTT time.Duration
	ICMPRTT     time.Duration
	DNSRTT      time.Duration
}

// NewSimHost returns a healthy host with typical latencies.
func NewSimHost(clock *simclock.Scheduler) *SimHost {
	return &SimHost{
		clock:         clock,
		cond:          Healthy,
		NumDNSServers: 2,
		LoopbackRTT:   time.Millisecond,
		ICMPRTT:       30 * time.Millisecond,
		DNSRTT:        60 * time.Millisecond,
	}
}

// SetCondition changes the host/network state.
func (h *SimHost) SetCondition(c Condition) { h.cond = c }

// ConditionNow returns the current state.
func (h *SimHost) ConditionNow() Condition { return h.cond }

// pingLoopback answers an ICMP echo to 127.0.0.1. done(ok) fires at reply
// time or at the timeout. System-side faults black-hole loopback probes.
func (h *SimHost) pingLoopback(timeout time.Duration, done func(ok bool)) {
	if h.cond.SystemSide() {
		h.clock.PostAfter(timeout, func() { done(false) })
		return
	}
	h.answer(h.LoopbackRTT, timeout, done)
}

// pingDNS answers an ICMP echo to an assigned DNS server.
func (h *SimHost) pingDNS(timeout time.Duration, done func(ok bool)) {
	switch h.cond {
	case NetworkDown:
		h.clock.PostAfter(timeout, func() { done(false) })
	case FirewallMisconfig, ProxyProblem, ModemDriverFailure:
		h.clock.PostAfter(timeout, func() { done(false) })
	default: // Healthy, DNSUnavailable: network reachable
		h.answer(h.ICMPRTT, timeout, done)
	}
}

// queryDNS answers a DNS query for the dedicated test server's name.
func (h *SimHost) queryDNS(timeout time.Duration, done func(ok bool)) {
	switch h.cond {
	case Healthy:
		h.answer(h.DNSRTT, timeout, done)
	default:
		h.clock.PostAfter(timeout, func() { done(false) })
	}
}

func (h *SimHost) answer(rtt, timeout time.Duration, done func(bool)) {
	if rtt >= timeout {
		h.clock.PostAfter(timeout, func() { done(false) })
		return
	}
	h.clock.PostAfter(rtt, func() { done(true) })
}

// Verdict is a probing round's classification.
type Verdict uint8

// Verdicts.
const (
	VerdictStillStalled Verdict = iota // network-side problem persists
	VerdictRecovered
	VerdictSystemSideFP
	VerdictDNSFP
)

func (v Verdict) String() string {
	switch v {
	case VerdictStillStalled:
		return "still-stalled"
	case VerdictRecovered:
		return "recovered"
	case VerdictSystemSideFP:
		return "system-side-false-positive"
	case VerdictDNSFP:
		return "dns-false-positive"
	default:
		return "unknown"
	}
}

// Config holds the probing schedule.
type Config struct {
	ICMPTimeout     time.Duration // paper: 1 s (RFC 5508 guidance)
	DNSTimeout      time.Duration // paper: 5 s (RFC 1536 guidance)
	BackoffAfter    time.Duration // paper: 1200 s
	BackoffFactor   float64       // paper: ×2
	RevertThreshold time.Duration // paper: 1 minute
	LegacyInterval  time.Duration // vanilla Android's detection granularity
}

// DefaultConfig returns the paper's schedule.
func DefaultConfig() Config {
	return Config{
		ICMPTimeout:     time.Second,
		DNSTimeout:      5 * time.Second,
		BackoffAfter:    1200 * time.Second,
		BackoffFactor:   2,
		RevertThreshold: time.Minute,
		LegacyInterval:  time.Minute,
	}
}

// Outcome summarizes a completed probe episode.
type Outcome struct {
	// Verdict is the terminal classification (never StillStalled).
	Verdict Verdict
	// Duration is the measured stall duration: the elapsed time from probe
	// start to the start of the round that observed recovery.
	Duration time.Duration
	// Rounds is the number of probing rounds issued.
	Rounds int
	// RevertedToLegacy reports whether timeout growth forced fallback to
	// Android's original one-minute estimation.
	RevertedToLegacy bool
	// MaxError bounds the measurement error of Duration.
	MaxError time.Duration
}

// Prober runs probing rounds until the stall resolves or is classified as
// a false positive.
type Prober struct {
	clock *simclock.Scheduler
	host  *SimHost
	cfg   Config
	// OnDone fires exactly once per Start.
	OnDone func(Outcome)

	active      bool
	start       simclock.Time
	rounds      int
	icmpTimeout time.Duration
	dnsTimeout  time.Duration
	legacy      bool
	legacyTimer *simclock.Timer
}

// NewProber builds a prober over the host.
func NewProber(clock *simclock.Scheduler, host *SimHost, cfg Config, onDone func(Outcome)) *Prober {
	if cfg.ICMPTimeout <= 0 || cfg.DNSTimeout <= 0 {
		cfg = DefaultConfig()
	}
	if cfg.BackoffFactor < 1 {
		cfg.BackoffFactor = 2
	}
	return &Prober{clock: clock, host: host, cfg: cfg, OnDone: onDone}
}

// Active reports whether an episode is being probed.
func (p *Prober) Active() bool { return p.active }

// Start begins probing a suspicious stall. Starting while active is ignored.
func (p *Prober) Start() {
	if p.active {
		return
	}
	p.active = true
	p.start = p.clock.Now()
	p.rounds = 0
	p.icmpTimeout = p.cfg.ICMPTimeout
	p.dnsTimeout = p.cfg.DNSTimeout
	p.legacy = false
	p.round()
}

// Abort cancels probing without an outcome (e.g. connection torn down).
func (p *Prober) Abort() {
	p.active = false
	if p.legacyTimer != nil {
		p.legacyTimer.Stop()
	}
}

func (p *Prober) round() {
	if !p.active {
		return
	}
	roundStart := p.clock.Now()
	p.rounds++

	// Past the backoff point, double timeouts each round; past the revert
	// threshold, fall back to legacy estimation.
	if roundStart-p.start > p.cfg.BackoffAfter && p.rounds > 1 {
		p.icmpTimeout = time.Duration(float64(p.icmpTimeout) * p.cfg.BackoffFactor)
		p.dnsTimeout = time.Duration(float64(p.dnsTimeout) * p.cfg.BackoffFactor)
	}
	if p.icmpTimeout > p.cfg.RevertThreshold || p.dnsTimeout > p.cfg.RevertThreshold {
		p.revertToLegacy()
		return
	}

	n := p.host.NumDNSServers
	if n < 1 {
		n = 1
	}
	var (
		pending    = 1 + 2*n
		loopbackOK bool
		icmpOK     int
		dnsOK      int
	)
	complete := func() {
		if !p.active {
			return
		}
		switch {
		case !loopbackOK:
			p.finish(VerdictSystemSideFP, roundStart)
		case dnsOK > 0:
			p.finish(VerdictRecovered, roundStart)
		case icmpOK > 0:
			p.finish(VerdictDNSFP, roundStart)
		default:
			// All DNS queries and DNS-server ICMPs timed out: genuine
			// network-side stall; probe again.
			p.round()
		}
	}
	collect := func(set func(bool)) func(bool) {
		return func(ok bool) {
			set(ok)
			pending--
			if pending == 0 {
				complete()
			}
		}
	}
	p.host.pingLoopback(p.icmpTimeout, collect(func(ok bool) { loopbackOK = ok }))
	for i := 0; i < n; i++ {
		p.host.pingDNS(p.icmpTimeout, collect(func(ok bool) {
			if ok {
				icmpOK++
			}
		}))
		p.host.queryDNS(p.dnsTimeout, collect(func(ok bool) {
			if ok {
				dnsOK++
			}
		}))
	}
}

// revertToLegacy polls at Android's one-minute granularity until healthy.
func (p *Prober) revertToLegacy() {
	p.legacy = true
	var poll func()
	poll = func() {
		if !p.active {
			return
		}
		if p.host.ConditionNow() == Healthy {
			p.finish(VerdictRecovered, p.clock.Now())
			return
		}
		p.legacyTimer = p.clock.After(p.cfg.LegacyInterval, poll)
	}
	poll()
}

func (p *Prober) finish(v Verdict, observedAt simclock.Time) {
	p.active = false
	maxErr := p.dnsTimeout
	if p.legacy {
		maxErr = p.cfg.LegacyInterval
	}
	out := Outcome{
		Verdict:          v,
		Duration:         observedAt - p.start,
		Rounds:           p.rounds,
		RevertedToLegacy: p.legacy,
		MaxError:         maxErr,
	}
	if p.OnDone != nil {
		p.OnDone(out)
	}
}
