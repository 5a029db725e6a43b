package storage

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func newPage(size int) []byte {
	buf := make([]byte, size)
	InitPage(buf, PageTypeHeap, 42, 7)
	return buf
}

func TestInitPageHeader(t *testing.T) {
	buf := newPage(512)
	if !IsFormatted(buf) {
		t.Fatal("page not recognized as formatted")
	}
	if PageType(buf) != PageTypeHeap || PageObjectID(buf) != 42 || PageLPN(buf) != 7 {
		t.Fatalf("header wrong: type=%d obj=%d lpn=%d", PageType(buf), PageObjectID(buf), PageLPN(buf))
	}
	if SlotCount(buf) != 0 || NumRecords(buf) != 0 {
		t.Fatal("fresh page not empty")
	}
	SetPageLSN(buf, 99)
	if PageLSN(buf) != 99 {
		t.Fatal("LSN roundtrip failed")
	}
	if IsFormatted(make([]byte, 512)) {
		t.Fatal("zero page recognized as formatted")
	}
	if IsFormatted(nil) {
		t.Fatal("nil page recognized as formatted")
	}
}

func TestInsertReadUpdateDelete(t *testing.T) {
	buf := newPage(512)
	s1, err := InsertRecord(buf, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := InsertRecord(buf, []byte("world!!"))
	if err != nil {
		t.Fatal(err)
	}
	if s1 == s2 {
		t.Fatal("duplicate slot")
	}
	if NumRecords(buf) != 2 {
		t.Fatalf("NumRecords = %d", NumRecords(buf))
	}
	got, err := recordAt(buf, s1)
	if err != nil || string(got) != "hello" {
		t.Fatalf("read s1: %q %v", got, err)
	}
	// In-place update with same/shorter size.
	if err := UpdateRecord(buf, s1, []byte("HELLO")); err != nil {
		t.Fatal(err)
	}
	got, _ = recordAt(buf, s1)
	if string(got) != "HELLO" {
		t.Fatalf("after update: %q", got)
	}
	if err := UpdateRecord(buf, s1, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	got, _ = recordAt(buf, s1)
	if string(got) != "hi" {
		t.Fatalf("after shrink: %q", got)
	}
	// Growing update relocates within the page.
	if err := UpdateRecord(buf, s1, []byte("a much longer record than before")); err != nil {
		t.Fatal(err)
	}
	got, _ = recordAt(buf, s1)
	if string(got) != "a much longer record than before" {
		t.Fatalf("after grow: %q", got)
	}
	// Other record untouched.
	got, _ = recordAt(buf, s2)
	if string(got) != "world!!" {
		t.Fatalf("s2 damaged: %q", got)
	}
	// Delete.
	if err := DeleteRecord(buf, s2); err != nil {
		t.Fatal(err)
	}
	if _, err := recordAt(buf, s2); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("read of deleted slot: %v", err)
	}
	if err := DeleteRecord(buf, s2); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("double delete: %v", err)
	}
	if NumRecords(buf) != 1 {
		t.Fatalf("NumRecords after delete = %d", NumRecords(buf))
	}
	// Deleted slots are reused.
	s3, err := InsertRecord(buf, []byte("reuse"))
	if err != nil {
		t.Fatal(err)
	}
	if s3 != s2 {
		t.Fatalf("slot not reused: got %d want %d", s3, s2)
	}
}

func TestInsertErrors(t *testing.T) {
	buf := newPage(128)
	if _, err := InsertRecord(buf, make([]byte, 500)); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("want ErrRecordTooLarge, got %v", err)
	}
	// Fill the page with 16-byte records until full.
	rec := bytes.Repeat([]byte{1}, 16)
	inserted := 0
	for {
		_, err := InsertRecord(buf, rec)
		if err != nil {
			if !errors.Is(err, ErrPageFull) {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
		inserted++
		if inserted > 100 {
			t.Fatal("page never filled")
		}
	}
	if inserted == 0 {
		t.Fatal("no record fit in the page")
	}
	// Bad slot and bad page errors.
	if _, err := recordAt(buf, 200); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("want ErrBadSlot, got %v", err)
	}
	if err := UpdateRecord(buf, 200, rec); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("want ErrBadSlot, got %v", err)
	}
	if err := DeleteRecord(buf, 200); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("want ErrBadSlot, got %v", err)
	}
	raw := make([]byte, 128)
	if _, err := InsertRecord(raw, rec); !errors.Is(err, ErrBadPage) {
		t.Fatalf("want ErrBadPage, got %v", err)
	}
	if _, err := recordAt(raw, 0); !errors.Is(err, ErrBadPage) {
		t.Fatalf("want ErrBadPage, got %v", err)
	}
	if err := IterateRecords(raw, func(uint16, []byte) bool { return true }); !errors.Is(err, ErrBadPage) {
		t.Fatalf("want ErrBadPage, got %v", err)
	}
	if FreeSpace(raw) != 0 {
		t.Fatal("free space of unformatted page")
	}
}

func TestCompactionReclaimsDeletedSpace(t *testing.T) {
	buf := newPage(256)
	rec := bytes.Repeat([]byte{7}, 40)
	var slots []uint16
	for {
		s, err := InsertRecord(buf, rec)
		if err != nil {
			break
		}
		slots = append(slots, s)
	}
	if len(slots) < 3 {
		t.Fatalf("too few records fit: %d", len(slots))
	}
	// Delete every other record, then a record of the same size must fit
	// again (requires compaction because the free space is fragmented).
	for i := 0; i < len(slots); i += 2 {
		if err := DeleteRecord(buf, slots[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := InsertRecord(buf, rec); err != nil {
		t.Fatalf("insert after deletes failed: %v", err)
	}
	// Remaining odd records are intact.
	for i := 1; i < len(slots); i += 2 {
		got, err := recordAt(buf, slots[i])
		if err != nil || !bytes.Equal(got, rec) {
			t.Fatalf("record %d damaged by compaction: %v", i, err)
		}
	}
}

func TestIterateRecords(t *testing.T) {
	buf := newPage(512)
	want := []string{"a", "bb", "ccc"}
	for _, w := range want {
		if _, err := InsertRecord(buf, []byte(w)); err != nil {
			t.Fatal(err)
		}
	}
	s, _ := InsertRecord(buf, []byte("zap"))
	if err := DeleteRecord(buf, s); err != nil {
		t.Fatal(err)
	}
	var got []string
	if err := IterateRecords(buf, func(slot uint16, rec []byte) bool {
		got = append(got, string(rec))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != "a" || got[1] != "bb" || got[2] != "ccc" {
		t.Fatalf("iterate = %v", got)
	}
	// Early stop.
	count := 0
	_ = IterateRecords(buf, func(uint16, []byte) bool {
		count++
		return false
	})
	if count != 1 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestRIDEncoding(t *testing.T) {
	f := func(lpn uint64, slot uint16) bool {
		r := RID{LPN: lpn, Slot: slot}
		dec, err := DecodeRID(r.Encode())
		return err == nil && dec == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRID([]byte{1, 2}); err == nil {
		t.Fatal("short RID accepted")
	}
	if (RID{LPN: 1, Slot: 2}).String() == "" {
		t.Fatal("empty RID string")
	}
}

// Property: a random sequence of inserts of random sizes either succeeds and
// is readable, or fails with ErrPageFull/ErrRecordTooLarge; successful
// inserts never exceed page capacity and all live records stay intact.
func TestSlottedPageProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		buf := newPage(1024)
		type rec struct {
			slot uint16
			data []byte
		}
		var live []rec
		for i, sz := range sizes {
			n := int(sz)%120 + 1
			data := bytes.Repeat([]byte{byte(i)}, n)
			slot, err := InsertRecord(buf, data)
			if err != nil {
				if errors.Is(err, ErrPageFull) || errors.Is(err, ErrRecordTooLarge) {
					continue
				}
				return false
			}
			live = append(live, rec{slot, data})
		}
		for _, r := range live {
			got, err := recordAt(buf, r.slot)
			if err != nil || !bytes.Equal(got, r.data) {
				return false
			}
		}
		return NumRecords(buf) == len(live)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
