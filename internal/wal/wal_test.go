package wal

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"noftl/internal/core"
	"noftl/internal/flash"
	"noftl/internal/storage"
)

func testLog(t *testing.T) (*Log, *core.Manager) {
	t.Helper()
	cfg := flash.DefaultConfig()
	cfg.Geometry = flash.Geometry{
		Channels: 2, DiesPerChannel: 1, PlanesPerDie: 1,
		BlocksPerDie: 64, PagesPerBlock: 16, PageSize: 512,
	}
	dev, err := flash.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mgr := core.NewManager(dev, core.DefaultOptions())
	return New(mgr, core.Hint{ObjectID: 99}, 512), mgr
}

// readBack reads the log's pages back from the device and reassembles the
// durable record stream with ScanImages, the decoder recovery uses; pages
// never flushed are unmapped and contribute nothing.
func readBack(t *testing.T, l *Log, mgr *core.Manager) []Record {
	t.Helper()
	var images []PageImage
	for i, p := range l.pages {
		lpn := p.lpn
		data, _, err := mgr.ReadPage(0, lpn, make([]byte, l.pageSize))
		if errors.Is(err, core.ErrUnmappedPage) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		images = append(images, PageImage{LPN: lpn, Seq: uint64(i), Data: data})
	}
	scan, err := ScanImages(images)
	if err != nil {
		t.Fatal(err)
	}
	return scan.Records
}

func encodeRecord(r Record) []byte {
	out := make([]byte, RecordSize(r))
	putRecord(out, r)
	return out
}

func TestRecordEncodeDecodeProperty(t *testing.T) {
	f := func(lsn, txn uint64, obj uint32, typ uint8, payload []byte) bool {
		r := Record{LSN: lsn, Type: RecordType(typ%7 + 1), TxnID: txn, ObjectID: obj, Payload: payload}
		dec, err := decodeRecord(encodeRecord(r))
		if err != nil {
			return false
		}
		return dec.LSN == r.LSN && dec.Type == r.Type && dec.TxnID == r.TxnID &&
			dec.ObjectID == r.ObjectID && bytes.Equal(dec.Payload, r.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRecordCorruptionDetected(t *testing.T) {
	enc := encodeRecord(Record{LSN: 1, Type: RecCommit, TxnID: 2, Payload: []byte("abc")})
	enc[len(enc)-1] ^= 0xFF
	if _, err := decodeRecord(enc); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
	if _, err := decodeRecord(enc[:5]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short record: %v", err)
	}
	// Length mismatch.
	enc2 := encodeRecord(Record{LSN: 1, Type: RecCommit, Payload: []byte("abc")})
	if _, err := decodeRecord(enc2[:len(enc2)-1]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated record: %v", err)
	}
}

// TestRecordByteFlipsDetected flips every byte of records of several payload
// sizes, one at a time and in two ways — in the checksum, in the rest of the
// header and in the payload: decodeRecord must refuse each with ErrCorrupt,
// and ScanImages over a log page holding the record must end the log just
// before it.
func TestRecordByteFlipsDetected(t *testing.T) {
	sizes := []int{0, 1, 7, 64, 300}
	for _, size := range sizes {
		enc := encodeRecord(Record{LSN: 9, Type: RecUpdate, TxnID: 3, ObjectID: 4, Payload: bytes.Repeat([]byte{0x5A}, size)})
		for i := range enc {
			for _, mask := range []byte{0x01, 0xFF} {
				enc[i] ^= mask
				if _, err := decodeRecord(enc); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%d-byte payload, byte %d ^ %#x: %v, want ErrCorrupt", size, i, mask, err)
				}
				enc[i] ^= mask
			}
		}
	}
	page := func() []byte {
		data := make([]byte, 1024)
		storage.InitPage(data, storage.PageTypeLog, 99, 1)
		storage.SetPageLSN(data, 1)
		for i, size := range sizes {
			r := Record{LSN: uint64(i + 1), Type: RecUpdate, TxnID: 7, Payload: bytes.Repeat([]byte{byte(i)}, size)}
			_, dst, err := storage.AllocRecord(data, RecordSize(r))
			if err != nil {
				t.Fatal(err)
			}
			putRecord(dst, r)
		}
		return data
	}
	for k := range sizes {
		for i := range recHeaderSize + sizes[k] {
			data := page()
			raw, _ := storage.CheckedRecords(data)
			raw[k][i] ^= 0xFF
			res, err := ScanImages([]PageImage{{LPN: 1, Seq: 1, Data: data}})
			if err != nil || len(res.Records) != k || res.TornRecords != len(sizes)-k {
				t.Fatalf("record %d, byte %d flipped: %d records kept, %d torn (%v); want %d, %d",
					k, i, len(res.Records), res.TornRecords, err, k, len(sizes)-k)
			}
		}
	}
}

func TestAppendFlushReadBack(t *testing.T) {
	l, mgr := testLog(t)
	if l.Stats().FlushedLSN != 0 {
		t.Fatalf("fresh log flushed LSN = %d", l.Stats().FlushedLSN)
	}
	var lsns []uint64
	for i := 0; i < 100; i++ {
		lsn, err := l.Append(RecUpdate, uint64(i%7), uint32(i%3), []byte(fmt.Sprintf("payload-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	if l.Stats().Appended != 100 {
		t.Fatalf("appended = %d", l.Stats().Appended)
	}
	if lsns[0] != 1 {
		t.Fatalf("first LSN = %d, want 1", lsns[0])
	}
	for i := 1; i < len(lsns); i++ {
		if lsns[i] != lsns[i-1]+1 {
			t.Fatal("LSNs not consecutive")
		}
	}
	// Nothing durable yet.
	if recs := readBack(t, l, mgr); len(recs) != 0 {
		t.Fatalf("unflushed records visible: %d", len(recs))
	}
	done, err := l.Flush(0)
	if err != nil {
		t.Fatal(err)
	}
	if done <= 0 {
		t.Fatal("flush consumed no virtual time")
	}
	if l.Stats().FlushedLSN != 100 {
		t.Fatalf("flushedLSN = %d", l.Stats().FlushedLSN)
	}
	if mgr.Stats().HostWrites == 0 {
		t.Fatal("flush wrote nothing to flash")
	}
	// Idempotent flush.
	if _, err := l.Flush(done); err != nil {
		t.Fatal(err)
	}
	if l.Stats().Flushes != 1 {
		t.Fatalf("flushes = %d", l.Stats().Flushes)
	}
	recs := readBack(t, l, mgr)
	if len(recs) != 100 {
		t.Fatalf("recovered %d records", len(recs))
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d has lsn %d", i, r.LSN)
		}
		if string(r.Payload) != fmt.Sprintf("payload-%d", i) {
			t.Fatalf("record %d payload %q", i, r.Payload)
		}
	}
	if int(l.Stats().Pages) < 2 {
		t.Fatalf("expected multiple log pages, got %d", int(l.Stats().Pages))
	}
}

func TestAppendTooLarge(t *testing.T) {
	l, _ := testLog(t)
	if _, err := l.Append(RecUpdate, 1, 0, make([]byte, 600)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
}

func TestTypeString(t *testing.T) {
	for _, typ := range []RecordType{RecBegin, RecCommit, RecAbort, RecInsert, RecUpdate, RecDelete, RecCheckpoint, RecordType(99)} {
		if typ.String() == "" {
			t.Fatal("empty type string")
		}
	}
}

func TestTruncateDropsOldPages(t *testing.T) {
	l, mgr := testLog(t)
	// Two forces of several pages each: LSNs 1-300, then 301-400.
	for i := 0; i < 400; i++ {
		if _, err := l.Append(RecUpdate, 1, 0, []byte(fmt.Sprintf("rec-%04d", i))); err != nil {
			t.Fatal(err)
		}
		if i == 299 || i == 399 {
			if _, err := l.Flush(0); err != nil {
				t.Fatal(err)
			}
		}
	}
	pagesBefore := int(l.Stats().Pages)
	validBefore := mgr.Stats().ValidPages
	dropped := l.Truncate(250)
	if dropped == 0 {
		t.Fatal("truncate dropped nothing")
	}
	if int(l.Stats().Pages) != pagesBefore-dropped {
		t.Fatalf("page count %d after dropping %d of %d", int(l.Stats().Pages), dropped, pagesBefore)
	}
	if mgr.Stats().ValidPages >= validBefore {
		t.Fatal("truncate did not trim pages on the device")
	}
	// The pages of the newest force stay whatever the caller asks for: a hole
	// in them would read as a force cut short by a crash.
	l.Truncate(400)
	recs := readBack(t, l, mgr)
	if len(recs) == 0 || recs[0].LSN > 301 || recs[len(recs)-1].LSN != 400 {
		t.Fatalf("truncate cut into the newest force: %d records", len(recs))
	}
}

// TestCommitAlreadyDurable checks the piggyback path: a commit or a flush
// whose records an earlier force made durable returns without a new force, no
// earlier than that force's end.
func TestCommitAlreadyDurable(t *testing.T) {
	l, _ := testLog(t)
	lsn1, _ := l.Append(RecCommit, 1, 0, nil)
	lsn2, _ := l.Append(RecCommit, 2, 0, nil)
	forced, err := l.Commit(10, lsn2)
	if err != nil {
		t.Fatal(err)
	}
	flushes := l.Stats().Flushes
	done, err := l.Commit(5, lsn1)
	if err != nil {
		t.Fatal(err)
	}
	if l.Stats().Flushes != flushes {
		t.Fatalf("already-durable commit forced the log again")
	}
	if done != forced {
		t.Fatalf("commit time %v, want the covering force's end %v", done, forced)
	}
	// A flush with nothing new returns the covering force's end too, and
	// does not force: two commits and a flush cost one force.
	if now, err := l.Flush(5); err != nil || now != forced {
		t.Fatalf("covered flush: now=%v err=%v, want %v", now, err, forced)
	}
	if l.Stats().Flushes != flushes {
		t.Fatalf("covered flush: %d forces, want %d", l.Stats().Flushes, flushes)
	}
	if now, err := l.Flush(forced + 123); err != nil || now != forced+123 {
		t.Fatalf("empty flush: now=%v err=%v", now, err)
	}
}
