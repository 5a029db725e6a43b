package wal

import (
	"bytes"
	"testing"

	"noftl/internal/storage"
)

// FuzzWALRecordDecode throws arbitrary bytes at the record decoder and every
// payload decoder the recovery path runs on post-crash data (row, index entry,
// checkpoint mark), plus the page-level record parser.
// Two properties must hold for any input:
//
//  1. no decoder panics — recovery must survive any byte soup a torn or
//     corrupted page can produce;
//  2. accepted input round-trips — re-encoding the decoded values yields a
//     payload that decodes to the same values again, and an accepted record
//     re-encodes to its own bytes.
func FuzzWALRecordDecode(f *testing.F) {
	rid := storage.RID{LPN: 7, Slot: 3}
	f.Add(EncodeRowPayload(rid, []byte("hello row")))
	f.Add(EncodeRowPayload(rid, nil))
	f.Add(EncodeIndexInsert([]byte("key-0001"), rid))
	f.Add(EncodeIndexInsert(nil, rid))
	f.Add(EncodeCheckpointMark(CkptBegin, []byte(`{"NextTxnID":7,"DefaultGC":{"Victim":0,"StepPages":8,"DisableHotCold":false},"Light":false}`)))
	f.Add(EncodeCheckpointMark(CkptBody+2, []byte(`{"Name":"T","ObjectID":2,"Tablespace":"SYSTEM","Columns":null}`)))
	f.Add(EncodeCheckpointMark(CkptEnd, nil))
	for _, r := range []Record{
		{LSN: 1, Type: RecBegin, TxnID: 7},
		{LSN: 2, Type: RecInsert, TxnID: 7, ObjectID: 3, Payload: EncodeRowPayload(rid, []byte("hello row"))},
		{LSN: 3, Type: RecCheckpoint, TxnID: 1, Payload: EncodeCheckpointMark(CkptEnd, nil)},
	} {
		f.Add(encodeRecord(r))
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF})
	f.Add(bytes.Repeat([]byte{0x00}, 64))

	f.Fuzz(func(t *testing.T, p []byte) {
		if r, err := decodeRecord(p); err == nil {
			if enc := encodeRecord(r); !bytes.Equal(enc, p) {
				t.Fatalf("record round trip: %x != %x", enc, p)
			}
		}
		if rid, row, err := DecodeRowPayload(p); err == nil {
			enc := EncodeRowPayload(rid, row)
			rid2, row2, err2 := DecodeRowPayload(enc)
			if err2 != nil || rid2 != rid || !bytes.Equal(row2, row) {
				t.Fatalf("row payload round trip: (%v,%q,%v) != (%v,%q)", rid2, row2, err2, rid, row)
			}
		}
		if key, rid, err := DecodeIndexInsert(p); err == nil {
			enc := EncodeIndexInsert(key, rid)
			key2, rid2, err2 := DecodeIndexInsert(enc)
			if err2 != nil || rid2 != rid || !bytes.Equal(key2, key) {
				t.Fatalf("index payload round trip: (%q,%v,%v) != (%q,%v)", key2, rid2, err2, key, rid)
			}
		}
		if kind, body, err := DecodeCheckpointMark(p); err == nil {
			kind2, body2, err2 := DecodeCheckpointMark(EncodeCheckpointMark(kind, body))
			if err2 != nil || kind2 != kind || !bytes.Equal(body2, body) {
				t.Fatalf("checkpoint mark round trip: (%d,%q,%v) != (%d,%q)", kind2, body2, err2, kind, body)
			}
		}
		// A begin mark followed by p is a checkpoint exactly when p is an end mark.
		kind, _, _ := DecodeCheckpointMark(p)
		recs := []Record{
			{LSN: 1, Type: RecCheckpoint, Payload: EncodeCheckpointMark(CkptBegin, nil)},
			{LSN: 2, Type: RecCheckpoint, Payload: p},
		}
		if begin, end, ok := LastCheckpoint(recs); ok != (kind == CkptEnd) || (ok && (begin != 1 || end != 2)) {
			t.Fatalf("LastCheckpoint(begin, %q) = %d..%d %v", p, begin, end, ok)
		}
		// The page parser must tolerate any buffer without panicking; its
		// results are validated by ScanImages, so here only safety matters.
		parsePage(p)
	})
}
