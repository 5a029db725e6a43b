// Package storage implements the DBMS physical layout used by the
// reproduction: slotted pages, record identifiers, heap files, extents and
// tablespaces.  A tablespace is bound to a NoFTL region (the paper's §2
// coupling of logical storage structures to regions); every page allocated
// from the tablespace carries the region as its placement hint.
package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// Page type tags stored in the page header.
const (
	PageTypeFree      uint8 = 0
	PageTypeHeap      uint8 = 1
	PageTypeBTreeLeaf uint8 = 2
	PageTypeBTreeNode uint8 = 3
	PageTypeMeta      uint8 = 4
	PageTypeLog       uint8 = 5
)

// Slotted page layout constants.
const (
	pageMagic      uint16 = 0x4E50 // "NP"
	PageHeaderSize        = 32
	slotSize              = 4
	// deletedSlotOffset marks a slot whose record has been deleted.
	deletedSlotOffset uint16 = 0xFFFF
	// flagDeleted, in the header's flags byte, marks a page that may hold a
	// deleted slot.  While it is clear the page holds none, so an insert
	// appends a slot without scanning the directory; heap tail pages and log
	// pages never set it.
	flagDeleted uint8 = 1
)

// Errors returned by the slotted-page codec.
var (
	// ErrPageFull reports that a record does not fit into the page.
	ErrPageFull = errors.New("storage: page full")
	// ErrBadSlot reports an access to a slot that does not exist or whose
	// record has been deleted.
	ErrBadSlot = errors.New("storage: invalid slot")
	// ErrRecordTooLarge reports a record that can never fit into a page.
	ErrRecordTooLarge = errors.New("storage: record larger than page payload")
	// ErrBadPage reports a buffer that is not a valid slotted page.
	ErrBadPage = errors.New("storage: not a valid slotted page")
	// ErrSizeChange reports an in-place update whose new record no longer
	// fits into the page.
	ErrSizeChange = errors.New("storage: updated record does not fit")
)

// Header field offsets.
const (
	offMagic     = 0
	offPageType  = 2
	offFlags     = 3
	offObjectID  = 4
	offLPN       = 8
	offLSN       = 16
	offSlotCount = 24
	offFreeStart = 26
	offFreeEnd   = 28
)

// InitPage formats buf as an empty slotted page of the given type belonging
// to the given object: it zeroes every byte, then writes the header.
func InitPage(buf []byte, pageType uint8, objectID uint32, lpn uint64) {
	clear(buf)
	binary.LittleEndian.PutUint16(buf[offMagic:], pageMagic)
	buf[offPageType] = pageType
	binary.LittleEndian.PutUint32(buf[offObjectID:], objectID)
	binary.LittleEndian.PutUint64(buf[offLPN:], lpn)
	binary.LittleEndian.PutUint16(buf[offFreeStart:], PageHeaderSize)
	binary.LittleEndian.PutUint16(buf[offFreeEnd:], uint16(len(buf)))
}

// IsFormatted reports whether buf carries the slotted-page magic.
func IsFormatted(buf []byte) bool {
	return len(buf) >= PageHeaderSize && binary.LittleEndian.Uint16(buf[offMagic:]) == pageMagic
}

// PageType returns the page type tag.
func PageType(buf []byte) uint8 { return buf[offPageType] }

// PageObjectID returns the owning object's id.
func PageObjectID(buf []byte) uint32 { return binary.LittleEndian.Uint32(buf[offObjectID:]) }

// PageLPN returns the page's own logical page number.
func PageLPN(buf []byte) uint64 { return binary.LittleEndian.Uint64(buf[offLPN:]) }

// PageLSN returns the log sequence number of the last change to the page.
func PageLSN(buf []byte) uint64 { return binary.LittleEndian.Uint64(buf[offLSN:]) }

// SetPageLSN stores the log sequence number of the last change to the page.
func SetPageLSN(buf []byte, lsn uint64) { binary.LittleEndian.PutUint64(buf[offLSN:], lsn) }

// SlotCount returns the number of slots (including deleted ones).
func SlotCount(buf []byte) int {
	return int(binary.LittleEndian.Uint16(buf[offSlotCount:]))
}

func freeEnd(buf []byte) int { return int(binary.LittleEndian.Uint16(buf[offFreeEnd:])) }

func setSlotCount(buf []byte, n int) { binary.LittleEndian.PutUint16(buf[offSlotCount:], uint16(n)) }
func setFreeEnd(buf []byte, n int)   { binary.LittleEndian.PutUint16(buf[offFreeEnd:], uint16(n)) }

func slotOffsetPos(slot int) int { return PageHeaderSize + slot*slotSize }

func readSlot(buf []byte, slot int) (off, length uint16) {
	p := slotOffsetPos(slot)
	return binary.LittleEndian.Uint16(buf[p:]), binary.LittleEndian.Uint16(buf[p+2:])
}

func writeSlot(buf []byte, slot int, off, length uint16) {
	p := slotOffsetPos(slot)
	binary.LittleEndian.PutUint16(buf[p:], off)
	binary.LittleEndian.PutUint16(buf[p+2:], length)
}

// FreeSpace returns the number of payload bytes that can still be inserted
// as a single new record (accounting for its slot entry).
func FreeSpace(buf []byte) int {
	if !IsFormatted(buf) {
		return 0
	}
	_, deleted := deletedSlots(buf)
	return max(gap(buf)+deleted-slotSize, 0) // the new record needs its own slot
}

// gap returns the contiguous free bytes between the slot directory and the
// records.
func gap(buf []byte) int { return freeEnd(buf) - PageHeaderSize - slotSize*SlotCount(buf) }

// deletedSlots returns the lowest deleted slot (-1 if there is none) and the
// payload bytes of deleted records (reclaimable by compaction).  It scans the
// slot directory only while flagDeleted is set.
func deletedSlots(buf []byte) (lowest, deleted int) {
	lowest = -1
	if buf[offFlags]&flagDeleted == 0 {
		return lowest, 0
	}
	for s := range SlotCount(buf) {
		if off, length := readSlot(buf, s); off == deletedSlotOffset {
			deleted += int(length)
			if lowest < 0 {
				lowest = s
			}
		}
	}
	return lowest, deleted
}

// NumRecords returns the number of live (non-deleted) records.
func NumRecords(buf []byte) int {
	n := 0
	for s := 0; s < SlotCount(buf); s++ {
		if off, _ := readSlot(buf, s); off != deletedSlotOffset {
			n++
		}
	}
	return n
}

// InsertRecord stores rec in the page and returns its slot number.  Deleted
// slots are reused and the page is compacted when the free space is
// fragmented.
func InsertRecord(buf []byte, rec []byte) (uint16, error) {
	slot, dst, err := AllocRecord(buf, len(rec))
	copy(dst, rec)
	return slot, err
}

// AllocRecord is InsertRecord for a caller that encodes the record in place:
// it reserves n bytes and returns the slot with the page bytes to fill in.
func AllocRecord(buf []byte, n int) (uint16, []byte, error) {
	if !IsFormatted(buf) {
		return 0, nil, ErrBadPage
	}
	if n > len(buf)-PageHeaderSize-slotSize {
		return 0, nil, fmt.Errorf("%w: %d bytes", ErrRecordTooLarge, n)
	}
	// Reuse the lowest deleted slot, or append a new one.
	slot, deleted := deletedSlots(buf)
	needed := n
	if slot < 0 {
		slot, needed = SlotCount(buf), n+slotSize
		buf[offFlags] &^= flagDeleted
	}
	if free := gap(buf); free < needed {
		if free+deleted < needed {
			return 0, nil, ErrPageFull
		}
		compact(buf)
	}
	if slot == SlotCount(buf) {
		setSlotCount(buf, slot+1)
	}
	newEnd := freeEnd(buf) - n
	setFreeEnd(buf, newEnd)
	writeSlot(buf, slot, uint16(newEnd), uint16(n))
	return uint16(slot), buf[newEnd : newEnd+n], nil
}

// AppendRecord appends the record in the given slot to dst and returns the
// extended slice; on error dst is returned unchanged.
func AppendRecord(dst, buf []byte, slot uint16) ([]byte, error) {
	rec, err := recordAt(buf, slot)
	if err != nil {
		return dst, err
	}
	return append(dst, rec...), nil
}

// recordAt returns the record in the given slot, aliasing buf.
func recordAt(buf []byte, slot uint16) ([]byte, error) {
	if !IsFormatted(buf) {
		return nil, ErrBadPage
	}
	if int(slot) >= SlotCount(buf) {
		return nil, fmt.Errorf("%w: slot %d of %d", ErrBadSlot, slot, SlotCount(buf))
	}
	off, length := readSlot(buf, int(slot))
	if off == deletedSlotOffset {
		return nil, fmt.Errorf("%w: slot %d deleted", ErrBadSlot, slot)
	}
	return buf[off : int(off)+int(length)], nil
}

// UpdateRecord replaces the record in the given slot.  The new record may be
// smaller or equal in size; growing beyond the page's free space fails with
// ErrSizeChange.
func UpdateRecord(buf []byte, slot uint16, rec []byte) error {
	if !IsFormatted(buf) {
		return ErrBadPage
	}
	if int(slot) >= SlotCount(buf) {
		return fmt.Errorf("%w: slot %d", ErrBadSlot, slot)
	}
	off, length := readSlot(buf, int(slot))
	if off == deletedSlotOffset {
		return fmt.Errorf("%w: slot %d deleted", ErrBadSlot, slot)
	}
	if len(rec) <= int(length) {
		copy(buf[off:], rec)
		writeSlot(buf, int(slot), off, uint16(len(rec)))
		return nil
	}
	// Relocate within the page: mark old space deleted, insert anew, keep
	// the same slot number.
	writeSlot(buf, int(slot), deletedSlotOffset, length)
	buf[offFlags] |= flagDeleted
	if free := gap(buf); free < len(rec) {
		if _, deleted := deletedSlots(buf); free+deleted < len(rec) {
			writeSlot(buf, int(slot), off, length) // restore
			return fmt.Errorf("%w: need %d bytes", ErrSizeChange, len(rec))
		}
		compact(buf)
	}
	newEnd := freeEnd(buf) - len(rec)
	copy(buf[newEnd:], rec)
	setFreeEnd(buf, newEnd)
	writeSlot(buf, int(slot), uint16(newEnd), uint16(len(rec)))
	return nil
}

// DeleteRecord removes the record in the given slot; the slot number may be
// reused by later inserts.
func DeleteRecord(buf []byte, slot uint16) error {
	if !IsFormatted(buf) {
		return ErrBadPage
	}
	if int(slot) >= SlotCount(buf) {
		return fmt.Errorf("%w: slot %d", ErrBadSlot, slot)
	}
	off, length := readSlot(buf, int(slot))
	if off == deletedSlotOffset {
		return fmt.Errorf("%w: slot %d already deleted", ErrBadSlot, slot)
	}
	writeSlot(buf, int(slot), deletedSlotOffset, length)
	buf[offFlags] |= flagDeleted
	return nil
}

// IterateRecords calls fn for every live record in slot order.  Returning
// false stops the iteration.
func IterateRecords(buf []byte, fn func(slot uint16, rec []byte) bool) error {
	if !IsFormatted(buf) {
		return ErrBadPage
	}
	for s := 0; s < SlotCount(buf); s++ {
		off, length := readSlot(buf, s)
		if off == deletedSlotOffset {
			continue
		}
		if !fn(uint16(s), buf[off:int(off)+int(length)]) {
			return nil
		}
	}
	return nil
}

// CheckedRecords returns the live records of buf in slot order, validating
// the slotted structure as it goes: every slot and record byte range must lie
// inside the page.  It stops at the first structural violation and reports
// whether the whole page was consistent.  Recovery uses it to read pages that
// may have been torn or corrupted by a crash, where IterateRecords could walk
// out of bounds.
func CheckedRecords(buf []byte) (recs [][]byte, ok bool) {
	if !IsFormatted(buf) {
		return nil, false
	}
	n := SlotCount(buf)
	if slotOffsetPos(n) > len(buf) {
		return nil, false
	}
	for s := 0; s < n; s++ {
		off, length := readSlot(buf, s)
		if off == deletedSlotOffset {
			continue
		}
		start, end := int(off), int(off)+int(length)
		if start < slotOffsetPos(n) || end > len(buf) {
			return recs, false
		}
		recs = append(recs, buf[start:end])
	}
	return recs, true
}

// compact rewrites the record area so that all live records are contiguous
// at the end of the page, in slot order from the end, and deleted space is
// reclaimed.  The page is copied once and the records moved out of the copy.
func compact(buf []byte) {
	old := bytes.Clone(buf)
	end := len(buf)
	for s := 0; s < SlotCount(buf); s++ {
		off, length := readSlot(buf, s)
		if off == deletedSlotOffset {
			writeSlot(buf, s, deletedSlotOffset, 0)
			continue
		}
		end -= int(length)
		copy(buf[end:], old[off:int(off)+int(length)])
		writeSlot(buf, s, uint16(end), length)
	}
	setFreeEnd(buf, end)
}

// RID identifies a record: the logical page it lives on and its slot.
type RID struct {
	LPN  uint64
	Slot uint16
}

// Encode packs the RID into 10 bytes.
func (r RID) Encode() []byte { return r.Append(make([]byte, 0, 10)) }

// Append appends the 10 bytes of Encode to dst.
func (r RID) Append(dst []byte) []byte {
	return binary.LittleEndian.AppendUint16(binary.LittleEndian.AppendUint64(dst, r.LPN), r.Slot)
}

// DecodeRID unpacks a RID encoded by Encode.
func DecodeRID(b []byte) (RID, error) {
	if len(b) < 10 {
		return RID{}, fmt.Errorf("%w: short RID", ErrBadSlot)
	}
	return RID{
		LPN:  binary.LittleEndian.Uint64(b),
		Slot: binary.LittleEndian.Uint16(b[8:]),
	}, nil
}

func (r RID) String() string { return fmt.Sprintf("rid(%d:%d)", r.LPN, r.Slot) }
