package trace

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/failure"
)

// storeCollector starts a collector with opt on a fresh segment store;
// both are closed when the test ends.
func storeCollector(t *testing.T, opt CollectorOptions) (*Collector, *SegStore, *Dataset) {
	t.Helper()
	st, err := OpenSegStore(t.TempDir(), SegStoreOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ds := NewDataset()
	opt.Store = st
	col, err := NewCollectorWith("127.0.0.1:0", ds, opt)
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		col.Close()
		st.Close()
	})
	return col, st, ds
}

// activeSegmentBytes returns the current contents of the store's active
// segment file.
func activeSegmentBytes(t *testing.T, st *SegStore) []byte {
	t.Helper()
	segs := st.Segments()
	raw, err := os.ReadFile(st.segPath(segs[len(segs)-1].ID))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// sendRaw writes frame on a fresh connection and returns the reply bytes
// the collector sent before closing or going idle (none for a dropped
// frame).
func sendRaw(t *testing.T, addr string, frame []byte) []byte {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).CloseWrite()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	reply, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	return reply
}

// deviceBatch is a sequenced batch of n sample events, all on dev.
func deviceBatch(dev, seq uint64, n int) *Batch {
	events := sampleEvents(n)
	for i := range events {
		events[i].DeviceID = dev
	}
	return &Batch{DeviceID: dev, Seq: seq, Events: events}
}

// TestStoreKeepsUploadedV3Frame: the segment bytes of a v3 upload are the
// frame the uploader put on the wire.
func TestStoreKeepsUploadedV3Frame(t *testing.T) {
	col, st, ds := storeCollector(t, CollectorOptions{})
	b := deviceBatch(5, 1, 40)
	sent, err := AppendBatchV3(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	up := NewUploader(col.Addr(), 5)
	up.FlushThreshold = 1 << 20
	up.SetWiFi(true)
	for _, e := range b.Events {
		up.Record(e)
	}
	if err := up.Flush(); err != nil {
		t.Fatal(err)
	}
	up.Close()
	if got := up.SentBytes(); got != int64(len(sent)) {
		t.Fatalf("uploader sent %d bytes, want the %d-byte frame", got, len(sent))
	}
	if got := activeSegmentBytes(t, st); !bytes.Equal(got, sent) {
		t.Fatalf("segment holds %d bytes, not the %d-byte frame the uploader sent", len(got), len(sent))
	}
	if ds.Len() != len(b.Events) {
		t.Fatalf("dataset has %d events, want %d", ds.Len(), len(b.Events))
	}
}

// TestStoreKeepsGzipFrameVerbatim sends a large gzip-flagged frame the
// v3 encoder would never produce (BestCompression, not the encoder's
// BestSpeed): the store must hold the received bytes, not a re-encoding.
func TestStoreKeepsGzipFrameVerbatim(t *testing.T) {
	col, st, _ := storeCollector(t, CollectorOptions{})
	b := deviceBatch(8, 1, 6000)
	canonical, err := AppendBatchV3(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	if canonical[1]&v3FlagGzip == 0 {
		t.Fatal("expected the encoder to gzip a 6000-event batch")
	}
	// Recover the raw payload and recompress it at another level.
	zr, err := gzip.NewReader(bytes.NewReader(canonical[6:]))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	zw, _ := gzip.NewWriterLevel(&body, gzip.BestCompression)
	zw.Write(payload)
	zw.Close()
	frame := []byte{versionV3, v3FlagGzip, 0, 0, 0, 0}
	binary.BigEndian.PutUint32(frame[2:], uint32(body.Len()))
	frame = append(frame, body.Bytes()...)
	if len(frame) < 32<<10 {
		t.Fatalf("frame is %d bytes, want >= 32 KiB", len(frame))
	}
	if bytes.Equal(frame, canonical) {
		t.Fatal("test frame must differ from the encoder's own frame")
	}

	reply := sendRaw(t, col.Addr(), frame)
	if len(reply) != replyLen || reply[0] != batchAck {
		t.Fatalf("reply = %x, want an ack", reply)
	}
	if got := activeSegmentBytes(t, st); !bytes.Equal(got, frame) {
		t.Fatalf("segment holds %d bytes, not the %d-byte frame received", len(got), len(frame))
	}
}

// TestStoreReencodesV2Batch: a gob-dialect batch has no v3 frame to
// keep, so it is stored as the encoder's v3 frame and replays to the
// same batch.
func TestStoreReencodesV2Batch(t *testing.T) {
	col, st, _ := storeCollector(t, CollectorOptions{})
	b := deviceBatch(11, 1, 30)
	up := NewUploader(col.Addr(), 11)
	up.Dialect = DialectV2
	up.FlushThreshold = 1 << 20
	up.SetWiFi(true)
	for _, e := range b.Events {
		up.Record(e)
	}
	if err := up.Flush(); err != nil {
		t.Fatal(err)
	}
	up.Close()
	want, err := AppendBatchV3(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := activeSegmentBytes(t, st); !bytes.Equal(got, want) {
		t.Fatalf("segment holds %d bytes, want the %d-byte v3 encoding", len(got), len(want))
	}

	col.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	var replayed []*Batch
	st2, err := OpenSegStore(st.Dir(), SegStoreOptions{}, func(rb *Batch) { replayed = append(replayed, rb) })
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if len(replayed) != 1 || !reflect.DeepEqual(replayed[0], b) {
		t.Fatalf("replayed %d batches, want exactly the uploaded batch", len(replayed))
	}
}

// TestMalformedV3BodyNotStored: a frame whose header is valid but whose
// body does not decode is dropped unacked and leaves the segment file
// untouched.
func TestMalformedV3BodyNotStored(t *testing.T) {
	col, st, ds := storeCollector(t, CollectorOptions{})
	good, err := AppendBatchV3(nil, deviceBatch(3, 1, 10))
	if err != nil {
		t.Fatal(err)
	}
	if reply := sendRaw(t, col.Addr(), good); len(reply) != replyLen || reply[0] != batchAck {
		t.Fatalf("reply = %x, want an ack", reply)
	}
	before := activeSegmentBytes(t, st)

	// Device 4, seq 1, then a string-table count far past the body.
	body := []byte{4, 1, 0x7f, 0, 0, 0, 0, 0}
	bad := []byte{versionV3, 0, 0, 0, 0, byte(len(body))}
	bad = append(bad, body...)
	if _, _, _, err := ReadBatchAny(bufio.NewReader(bytes.NewReader(bad))); !errors.Is(err, errV3Malformed) {
		t.Fatalf("test frame decodes with err %v, want errV3Malformed", err)
	}
	if reply := sendRaw(t, col.Addr(), bad); len(reply) != 0 {
		t.Fatalf("malformed frame got reply %x, want none", reply)
	}
	if got := activeSegmentBytes(t, st); !bytes.Equal(got, before) {
		t.Fatalf("segment changed from %d to %d bytes on a malformed frame", len(before), len(got))
	}
	if batches, _ := col.Stats(); batches != 1 || ds.Len() != 10 {
		t.Fatalf("admitted %d batches / %d events, want only the good one", batches, ds.Len())
	}
}

// TestUploaderSplitsOversizedBacklog: a backlog one event past the
// per-batch cap is sealed into two batches with consecutive seqs, and
// the collector admits each exactly once.
func TestUploaderSplitsOversizedBacklog(t *testing.T) {
	var mu sync.Mutex
	var admitted []int
	col, st, ds := storeCollector(t, CollectorOptions{OnAdmit: func(events []failure.Event) {
		mu.Lock()
		defer mu.Unlock()
		admitted = append(admitted, len(events))
	}})
	up := NewUploader(col.Addr(), 21)
	up.FlushThreshold = 1 << 30
	events := deviceBatch(21, 0, maxBatchEvents+1).Events
	for _, e := range events {
		up.Record(e)
	}
	up.SetWiFi(true) // one flush of the whole backlog
	if err := up.LastErr(); err != nil {
		t.Fatal(err)
	}
	up.Close()
	mu.Lock()
	defer mu.Unlock()
	if got, want := admitted, []int{maxBatchEvents, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("admitted batch sizes %v, want %v", got, want)
	}
	batches, _ := col.Stats()
	if batches != 2 || col.DedupHits() != 0 || ds.Len() != len(events) {
		t.Fatalf("batches=%d dedup=%d events=%d, want 2 batches, 0 dups, %d events",
			batches, col.DedupHits(), ds.Len(), len(events))
	}
	segs := st.Segments()
	if r := segs[len(segs)-1].Devices; len(r) != 1 || r[0].MinSeq != 1 || r[0].MaxSeq != 2 {
		t.Fatalf("stored seq ranges %+v, want device 21 seqs 1..2", r)
	}
}
