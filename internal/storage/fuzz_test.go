package storage

import (
	"bytes"
	"errors"
	"testing"
)

// refRoom is the reference the page's accounting is checked against, from a
// scan of every slot whatever the page's flags say: the bytes a record and its
// new slot may take, the contiguous gap plus the deleted records' bytes
// (negative when the directory has overrun the records), and the slot the
// next insert takes, the lowest deleted one, else a new one.
func refRoom(buf []byte) (room, slot int) {
	room, slot = gap(buf), -1
	for s := range SlotCount(buf) {
		if off, length := readSlot(buf, s); off == deletedSlotOffset {
			room += int(length)
			if slot < 0 {
				slot = s
			}
		}
	}
	if slot < 0 {
		slot = SlotCount(buf)
	}
	return room, slot
}

// FuzzSlottedPage drives one slotted page through a byte-string program of
// inserts, updates, deletes, compactions and reads and checks it against a map
// from slot to record.  Every operation takes three bytes: the operation, a
// slot choice (modulo one past the slot count, so it can miss) and a record
// size, either 0..127 (fills the page to ErrPageFull) or within 8 bytes of the
// largest record a page can hold (crosses ErrRecordTooLarge and
// ErrSizeChange).  After every operation FreeSpace must equal refRoom's, a
// page whose flagDeleted is clear must hold no deleted slot, and every live
// slot must read back the model's bytes, through recordAt and AppendRecord; an
// insert must take refRoom's slot and fail with ErrPageFull exactly when it
// does not fit, a growing update with ErrSizeChange likewise.
func FuzzSlottedPage(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 40, 0, 0, 40, 3, 1, 0, 2, 0, 0, 0, 0, 90})
	f.Add(bytes.Repeat([]byte{0, 0, 127}, 8))                                         // fill to ErrPageFull
	f.Add([]byte{0, 0, 0x88, 0, 0, 0x8F, 1, 0, 0x89, 1, 0, 0x87})                     // the ErrRecordTooLarge boundary
	f.Add([]byte{0, 0, 60, 0, 0, 60, 0, 0, 60, 2, 1, 0, 1, 0, 100, 4, 0})             // grow into a deleted gap
	f.Add([]byte{0, 0, 0, 1, 0, 0, 3, 0, 0, 4, 5, 0, 2, 0, 0, 2, 0, 0})               // empty records and misses
	f.Add([]byte{0, 0, 90, 0, 0, 90, 2, 0, 0, 0, 0, 10, 1, 1, 20, 5, 0, 0, 0, 0, 90}) // reuse, grow, compact

	const pageSize = 512
	maxRec := pageSize - PageHeaderSize - slotSize
	f.Fuzz(func(t *testing.T, prog []byte) {
		buf := make([]byte, pageSize)
		InitPage(buf, PageTypeHeap, 1, 1)
		model := map[uint16][]byte{}
		prog = prog[:min(len(prog), 3*200)] // 200 operations fill and empty the page many times
		for step := 0; step+3 <= len(prog); step += 3 {
			op, slot := prog[step]%6, uint16(int(prog[step+1])%(SlotCount(buf)+1))
			size := int(prog[step+2])
			if size >= 0x80 {
				size = maxRec - 8 + size%16
			}
			rec := make([]byte, size)
			for i := range rec {
				rec[i] = byte(step + i + 1)
			}
			want, live := model[slot]
			room, next := refRoom(buf)
			switch op {
			case 0:
				needed := size
				if next == SlotCount(buf) {
					needed += slotSize
				}
				s, err := InsertRecord(buf, rec)
				switch {
				case err == nil:
					if int(s) != next || needed > room {
						t.Fatalf("step %d: insert took slot %d (want %d) with %d of %d bytes", step, s, next, needed, room)
					}
					model[s] = rec
				case errors.Is(err, ErrRecordTooLarge):
					if size <= maxRec {
						t.Fatalf("step %d: %d-byte record refused as too large (max %d)", step, size, maxRec)
					}
				case errors.Is(err, ErrPageFull):
					if size > maxRec || needed <= room {
						t.Fatalf("step %d: %d-byte record refused as page full with %d bytes of room", step, size, room)
					}
				default:
					t.Fatalf("step %d: insert: %v", step, err)
				}
			case 1:
				err := UpdateRecord(buf, slot, rec)
				switch {
				case !live:
					if !errors.Is(err, ErrBadSlot) {
						t.Fatalf("step %d: update of dead slot %d: %v", step, slot, err)
					}
				case err == nil:
					if size > len(want) && size > room+len(want) {
						t.Fatalf("step %d: %d-byte update fit in %d bytes of room", step, size, room+len(want))
					}
					model[slot] = rec
				case !errors.Is(err, ErrSizeChange) || size <= room+len(want):
					t.Fatalf("step %d: update slot %d to %d bytes with %d of room: %v", step, slot, size, room+len(want), err)
				}
			case 2:
				err := DeleteRecord(buf, slot)
				if live != (err == nil) || (!live && !errors.Is(err, ErrBadSlot)) {
					t.Fatalf("step %d: delete slot %d (live %v): %v", step, slot, live, err)
				}
				delete(model, slot)
			case 3:
				got, err := recordAt(buf, slot)
				if live != (err == nil) || (live && !bytes.Equal(got, want)) {
					t.Fatalf("step %d: read slot %d (live %v) = %x, %v; want %x", step, slot, live, got, err, want)
				}
			case 4:
				got, err := AppendRecord([]byte("dst"), buf, slot)
				if live != (err == nil) || (live && !bytes.Equal(got, append([]byte("dst"), want...))) ||
					(!live && string(got) != "dst") {
					t.Fatalf("step %d: append slot %d (live %v) = %q, %v", step, slot, live, got, err)
				}
			case 5:
				compact(buf)
			}
			if gap(buf) < 0 {
				t.Fatalf("step %d: slot directory overruns the records by %d bytes", step, -gap(buf))
			}
			if room, next := refRoom(buf); FreeSpace(buf) != max(room-slotSize, 0) {
				t.Fatalf("step %d: FreeSpace %d, reference %d", step, FreeSpace(buf), max(room-slotSize, 0))
			} else if buf[offFlags]&flagDeleted == 0 && next != SlotCount(buf) {
				t.Fatalf("step %d: flag clear with slot %d deleted", step, next)
			}
			if NumRecords(buf) != len(model) {
				t.Fatalf("step %d: %d live records, model has %d", step, NumRecords(buf), len(model))
			}
			for s, w := range model {
				if got, err := recordAt(buf, s); err != nil || !bytes.Equal(got, w) {
					t.Fatalf("step %d: slot %d reads %x (%v), model %x", step, s, got, err, w)
				}
			}
		}
	})
}
