package trace

import (
	"bufio"
	"bytes"
	"reflect"
	"testing"

	"repro/internal/failure"
)

// FuzzReadBatch hardens the wire decoder: arbitrary bytes must never
// panic or over-allocate, and valid frames must round-trip.
func FuzzReadBatch(f *testing.F) {
	var valid bytesBuffer
	WriteBatch(&valid, &Batch{DeviceID: 3, Events: sampleEvents(3)})
	f.Add([]byte(valid))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 4, 1, 2, 3, 4})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		b, _, err := ReadBatch(bytesReader(data))
		if err != nil {
			return
		}
		// A successfully decoded batch must be internally consistent.
		for i := range b.Events {
			_ = b.Events[i].Kind.String()
		}
	})
}

// FuzzWireV3RoundTrip hardens the v3 decoder two ways at once: arbitrary
// bytes must never panic or over-allocate, and any input that *does*
// decode must re-encode/decode to the identical batch — which, combined
// with TestWireV3GobOracle, pins v3 to the gob dialect's semantics.
func FuzzWireV3RoundTrip(f *testing.F) {
	seed1, _ := AppendBatchV3(nil, &Batch{DeviceID: 3, Seq: 1, Events: sampleEvents(3)})
	seed2, _ := AppendBatchV3(nil, &Batch{DeviceID: 1, Seq: 9, Events: sampleEvents(400)}) // gzip'd
	seed3, _ := AppendBatchV3(nil, &Batch{DeviceID: 0, Seq: 0})
	f.Add(seed1)
	f.Add(seed2)
	f.Add(seed3)
	f.Add([]byte{versionV3})
	f.Add([]byte{versionV3, 0x01, 0, 0, 0, 2, 0x1f, 0x8b})
	f.Add([]byte{versionV3, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		b, _, _, err := ReadBatchAny(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		frame, err := AppendBatchV3(nil, b)
		if err != nil {
			t.Fatalf("re-encode of decoded batch failed: %v", err)
		}
		again, _, _, err := ReadBatchAny(bufio.NewReader(bytes.NewReader(frame)))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(b, again) {
			t.Fatalf("v3 re-encode not stable:\n was %+v\n now %+v", b, again)
		}
	})
}

// FuzzStreamReader: the framed stream reader must terminate on any input.
func FuzzStreamReader(f *testing.F) {
	var valid bytesBuffer
	sw := NewStreamWriter(&valid, 2)
	for _, e := range sampleEvents(5) {
		sw.Write(e)
	}
	sw.Flush()
	f.Add([]byte(valid))
	f.Add([]byte{0, 0, 0, 1, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		n := 0
		_ = EachStream(bytesReader(data), func(e *failure.Event) {
			n++
			if n > 1_000_000 {
				t.Fatal("unbounded event stream from finite input")
			}
		})
	})
}

// FuzzFrameReader pins the collector's frame reader to the bytes on the
// wire: a v3 frame it returns is exactly the bytes it consumed, and those
// bytes decode on their own to the batch ReadBatchAny reads from the same
// input — so a store holding the frame verbatim replays what was admitted.
func FuzzFrameReader(f *testing.F) {
	seed1, _ := AppendBatchV3(nil, &Batch{DeviceID: 3, Seq: 1, Events: sampleEvents(3)})
	seed2, _ := AppendBatchV3(nil, &Batch{DeviceID: 1, Seq: 9, Events: sampleEvents(400)}) // gzip'd
	var gob bytesBuffer
	WriteBatch(&gob, &Batch{DeviceID: 3, Events: sampleEvents(3)})
	f.Add(seed1)
	f.Add(append(seed2, seed1...))
	f.Add([]byte(gob))
	f.Add([]byte{versionV3, 0, 0, 0, 0, 3, 4, 1, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytes.NewReader(data)
		fr := frameReader{br: bufio.NewReader(src)}
		b, frame, wire, d, err := fr.next()
		want, wantWire, wantD, wantErr := ReadBatchAny(bufio.NewReader(bytes.NewReader(data)))
		if (err == nil) != (wantErr == nil) || wire != wantWire || d != wantD {
			t.Fatalf("frame reader (wire %d, %v, err %v) disagrees with ReadBatchAny (wire %d, %v, err %v)",
				wire, d, err, wantWire, wantD, wantErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(b, want) {
			t.Fatalf("frame reader batch %+v != ReadBatchAny batch %+v", b, want)
		}
		if d != DialectV3 {
			if frame != nil {
				t.Fatalf("%v frame returned %d v3 bytes, want none", d, len(frame))
			}
			return
		}
		consumed := len(data) - src.Len() - fr.br.Buffered()
		if len(frame) != wire || consumed != wire || !bytes.Equal(frame, data[:consumed]) {
			t.Fatalf("frame is %d bytes, wire %d, consumed %d: frame must be exactly the consumed bytes",
				len(frame), wire, consumed)
		}
		again, n, _, err := ReadBatchAny(bufio.NewReader(bytes.NewReader(frame)))
		if err != nil || n != len(frame) || !reflect.DeepEqual(again, b) {
			t.Fatalf("stored frame re-reads to %+v (%d bytes, err %v), want %+v", again, n, err, b)
		}
	})
}
