package wal

import (
	"errors"
	"testing"

	"noftl/internal/core"
	"noftl/internal/storage"
)

// logImage builds one log page version holding the records first..last as a
// force with the given horizon would have written it; marks turns the records
// at the given LSNs into checkpoint marks (begin or end) of sequence 1.
func logImage(lpn core.LPN, seq, horizon, first, last uint64, marks map[uint64]byte) PageImage {
	data := make([]byte, 512)
	storage.InitPage(data, storage.PageTypeLog, 99, uint64(lpn))
	storage.SetPageLSN(data, horizon)
	for lsn := first; lsn <= last; lsn++ {
		r := Record{LSN: lsn, Type: RecUpdate, TxnID: 7, Payload: []byte{byte(lsn)}}
		if kind, ok := marks[lsn]; ok {
			r = Record{LSN: lsn, Type: RecCheckpoint, TxnID: 1, Payload: EncodeCheckpointMark(kind, nil)}
		}
		_, dst, err := storage.AllocRecord(data, RecordSize(r))
		if err != nil {
			panic(err)
		}
		putRecord(dst, r)
	}
	return PageImage{LPN: lpn, Seq: seq, Data: data}
}

// torn damages the first record of the image, as a program cut short does:
// the page keeps its header and loses what its tail held, and with its first
// record every one after it.
func torn(img PageImage) PageImage {
	for i := len(img.Data) - 8; i < len(img.Data); i++ {
		img.Data[i] = 0
	}
	return img
}

// TestScanImagesHoleRule drives ScanImages with hand-built page sets: what a
// crash inside a multi-page force, old truncated segments and earlier lives
// can leave on flash, alone and together.
func TestScanImagesHoleRule(t *testing.T) {
	ckpt := func(begin, end uint64) map[uint64]byte {
		return map[uint64]byte{begin: CkptBegin, end: CkptEnd}
	}
	// The settled prefix most cases share: two pages of an acknowledged force.
	settled := []PageImage{
		logImage(1, 1, 1, 1, 3, nil),
		logImage(2, 2, 1, 4, 6, nil),
	}
	for _, tc := range []struct {
		name        string
		images      []PageImage
		first, last uint64 // the surviving run; 0, 0 = empty
		torn        int    // TornRecords
		stale       int    // StaleRecords
		unreadable  int
		checkpoint  bool // a complete checkpoint survives in the run
		corrupt     bool
	}{
		{
			name:   "complete last force",
			images: append(settled[:2:2], logImage(2, 3, 7, 4, 8, nil), logImage(3, 4, 7, 9, 11, nil)),
			first:  1, last: 11,
		},
		{
			name: "hole in the last force",
			// The force rewrote page 2 and wrote pages 3-5; page 4 never landed.
			images: append(settled[:2:2], logImage(2, 3, 7, 4, 8, nil), logImage(3, 4, 7, 9, 11, nil),
				logImage(5, 6, 7, 15, 17, nil)),
			first: 1, last: 11, torn: 3,
		},
		{
			name: "first page of the last force missing",
			// Its older version still holds every acknowledged record.
			images: append(settled[:2:2], logImage(3, 4, 7, 9, 11, nil), logImage(4, 5, 7, 12, 14, nil)),
			first:  1, last: 6, torn: 6,
		},
		{
			name: "torn page that is not the newest write",
			// Page 3 was torn by the crash; page 4, dispatched before it on another
			// die, is whole and carries the higher sequence number.
			images: append(settled[:2:2], logImage(2, 3, 7, 4, 8, nil), torn(logImage(3, 4, 7, 9, 11, nil)),
				logImage(4, 5, 7, 12, 14, nil)),
			first: 1, last: 8, torn: 3 + 3,
		},
		{
			name: "torn rewrite falls back to the older version",
			images: append(settled[:2:2], torn(logImage(2, 3, 7, 4, 8, nil)),
				logImage(3, 4, 7, 9, 11, nil)),
			first: 1, last: 6, torn: 5 + 3,
		},
		{
			name: "fragment above a hole holds a complete checkpoint",
			// Never acknowledged: the force that carried it did not complete.
			images: append(settled[:2:2], logImage(4, 5, 7, 12, 14, ckpt(12, 14))),
			first:  1, last: 6, torn: 3,
		},
		{
			name: "stale segment and a hole together",
			// Pages 1-2 predate a checkpoint that truncated them; page 3 (7-9) is
			// gone, pages 4-5 are the live run, the last force lost its middle page.
			images: append(settled[:2:2], logImage(4, 4, 10, 10, 12, ckpt(10, 11)), logImage(5, 5, 13, 13, 15, nil),
				logImage(6, 6, 16, 16, 18, nil), logImage(8, 8, 16, 22, 24, nil)),
			first: 10, last: 18, torn: 3, stale: 6, checkpoint: true,
		},
		{
			name: "earlier life below a seeded gap",
			// Life 1 ended at LSN 6 with a fragment up to 11; life 2 was seeded at
			// 13 and checkpointed.
			images: append(settled[:2:2], logImage(3, 3, 7, 9, 11, nil),
				logImage(4, 4, 13, 13, 15, ckpt(13, 14)), logImage(5, 5, 16, 16, 18, nil)),
			first: 13, last: 18, stale: 6 + 3, checkpoint: true,
		},
		{
			name: "torn tail of an earlier life is unreadable, not torn",
			images: append(settled[:2:2], torn(logImage(3, 3, 7, 7, 9, nil)),
				logImage(4, 4, 11, 11, 13, ckpt(11, 12)), logImage(5, 5, 14, 14, 16, nil)),
			first: 11, last: 16, stale: 6, unreadable: 1, checkpoint: true,
		},
		{
			name: "new life lost the first page of its first force",
			// Nothing of life 2 was acknowledged, but what it trimmed of life 1
			// may be gone: the scan refuses rather than guess.
			images:  append(settled[:2:2], logImage(5, 5, 8, 11, 13, nil)),
			corrupt: true,
		},
		{
			name: "acknowledged page lost",
			// Page 2 has no valid version and a later force proves its records
			// were durable: the run restarts above it, without a checkpoint.
			images: []PageImage{settled[0], torn(logImage(2, 2, 1, 4, 6, nil)),
				logImage(3, 3, 7, 7, 9, nil), logImage(4, 4, 10, 10, 12, nil)},
			first: 7, last: 12, stale: 3, unreadable: 1,
		},
		{
			name: "log ends below the horizon",
			// The page holding LSN 7-9 is gone although the force after it began.
			images:  append(settled[:2:2], torn(logImage(4, 4, 10, 10, 12, nil))),
			corrupt: true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := ScanImages(tc.images)
			if tc.corrupt {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("err = %v, want ErrCorrupt", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var first, last uint64
			if n := len(res.Records); n > 0 {
				first, last = res.Records[0].LSN, res.Records[n-1].LSN
				if last-first+1 != uint64(n) {
					t.Fatalf("run %d..%d has %d records", first, last, n)
				}
			}
			if first != tc.first || last != tc.last {
				t.Fatalf("surviving run %d..%d, want %d..%d", first, last, tc.first, tc.last)
			}
			if res.TornRecords != tc.torn || res.TornTail != (tc.torn > 0) {
				t.Errorf("torn tail: %d records (flag %v), want %d", res.TornRecords, res.TornTail, tc.torn)
			}
			if res.StaleRecords != tc.stale || res.Unreadable != tc.unreadable {
				t.Errorf("stale %d unreadable %d, want %d and %d", res.StaleRecords, res.Unreadable, tc.stale, tc.unreadable)
			}
			if _, _, ok := LastCheckpoint(res.Records); ok != tc.checkpoint {
				t.Errorf("complete checkpoint in the run: %v, want %v", ok, tc.checkpoint)
			}
		})
	}
}
