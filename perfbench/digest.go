package main

import (
	"fmt"
	"reflect"

	"repro/internal/failure"
	"repro/internal/telephony"
	"repro/internal/trace"
)

// digest is an order-independent multiset digest of events: two sums of
// independent 64-bit per-event hashes plus the count. It plays the role of
// trace.Dataset.MultisetDigest in the correctness gates at a fraction of
// its cost (that one formats every event through fmt and SHA-256, which
// would dominate a multi-million-event run).
type digest struct{ a, b, n uint64 }

func (d *digest) add(e *failure.Event) {
	h := eventHash(e)
	d.a += h
	d.b += mix(h ^ 0x9e3779b97f4a7c15)
	d.n++
}

func (d digest) String() string { return fmt.Sprintf("%016x%016x/%d", d.a, d.b, d.n) }

func datasetDigest(ds *trace.Dataset) digest {
	var d digest
	ds.Each(d.add)
	return d
}

func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// eventHash hashes every field of an event, including the transition
// record behind its pointer.
func eventHash(e *failure.Event) uint64 {
	h := uint64(0x6a09e667f3bcc909)
	f := func(v uint64) { h = mix(h ^ v) }
	f(uint64(e.Kind))
	f(e.DeviceID)
	f(uint64(e.ModelID))
	f(uint64(e.AndroidVersion))
	f(b2u(e.FiveGCapable))
	f(uint64(e.ISP))
	f(uint64(e.Cell.MCC)<<48 | uint64(e.Cell.MNC)<<32 | uint64(e.Cell.LAC))
	f(uint64(e.Cell.CID)<<1 | b2u(e.Cell.CDMA))
	f(uint64(e.Region))
	f(b2u(e.DenseBS))
	f(uint64(e.RAT))
	f(uint64(e.Level))
	for i := 0; i < len(e.APN); i++ {
		f(uint64(e.APN[i]))
	}
	f(uint64(len(e.APN)))
	f(uint64(e.Cause))
	f(uint64(e.Start))
	f(uint64(e.Duration))
	f(uint64(e.ResolvedBy))
	f(uint64(e.OpsExecuted))
	f(uint64(e.AutoFixTime))
	if t := e.Transition; t != nil {
		f(1 | uint64(t.FromRAT)<<8 | uint64(t.ToRAT)<<16 | uint64(t.FromLevel)<<24 | uint64(t.ToLevel)<<32)
	} else {
		f(0)
	}
	return h
}

// digestCoverage checks that eventHash still covers every field: a field
// added to the event types without a line above fails the digest gates
// instead of silently escaping them.
func digestCoverage() error {
	for _, c := range []struct {
		t      reflect.Type
		fields int
	}{
		{reflect.TypeOf(failure.Event{}), 19},
		{reflect.TypeOf(telephony.CellIdentity{}), 5},
		{reflect.TypeOf(failure.TransitionInfo{}), 4},
	} {
		if n := c.t.NumField(); n != c.fields {
			return fmt.Errorf("%s has %d fields, the digest hashes %d", c.t, n, c.fields)
		}
	}
	return nil
}
