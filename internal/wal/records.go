package wal

import (
	"encoding/binary"
	"fmt"

	"noftl/internal/storage"
)

// Record payload codecs.  The DML record types carry enough state for a
// logical redo through the normal heap/btree path:
//
//	RecInsert      rid(10) + row image
//	RecUpdate      rid(10) + after image
//	RecDelete      rid(10)
//	RecIndexInsert u16 key length + key + rid(10)
//	RecIndexDelete key
//	RecCheckpoint  kind(1) + body; TxnID carries the checkpoint sequence
//	               number.  A checkpoint is the run of marks from its CkptBegin
//	               to its CkptEnd: it carries no row, only what it takes to find
//	               the checkpointed state in the data pages on flash.

const ridLen = 10

// Checkpoint mark kinds: the first payload byte of a RecCheckpoint record.
// The log only tells begin from end (LastCheckpoint); every kind from CkptBody
// up, and every body, belongs to the layer that writes the checkpoint.
const (
	CkptBegin byte = iota + 1
	CkptEnd
	CkptBody
)

// MaxPayload returns the largest record payload that fits into one log page
// of the given size (records never span pages).
func MaxPayload(pageSize int) int { return pageSize - storage.PageHeaderSize - 8 - recHeaderSize }

// MaxRow returns the largest row image a RecInsert/RecUpdate can carry.
func MaxRow(pageSize int) int { return MaxPayload(pageSize) - ridLen }

// RecordSize returns the encoded size of a record on a log page.
func RecordSize(r Record) int {
	return recHeaderSize + len(r.Payload)
}

// EncodeRowPayload packs a RID plus a row image (RecInsert, RecUpdate).
func EncodeRowPayload(rid storage.RID, row []byte) []byte {
	return append(rid.Append(make([]byte, 0, ridLen+len(row))), row...)
}

// DecodeRowPayload unpacks a RecInsert/RecUpdate payload.
func DecodeRowPayload(p []byte) (storage.RID, []byte, error) {
	rid, err := storage.DecodeRID(p)
	if err != nil {
		return storage.RID{}, nil, fmt.Errorf("%w: row payload: %v", ErrCorrupt, err)
	}
	return rid, p[ridLen:], nil
}

// EncodeIndexInsert packs an index entry (RecIndexInsert).
func EncodeIndexInsert(key []byte, rid storage.RID) []byte {
	dst := binary.LittleEndian.AppendUint16(make([]byte, 0, 2+len(key)+ridLen), uint16(len(key)))
	return rid.Append(append(dst, key...))
}

// DecodeIndexInsert unpacks a RecIndexInsert payload.
func DecodeIndexInsert(p []byte) ([]byte, storage.RID, error) {
	if len(p) < 2 {
		return nil, storage.RID{}, fmt.Errorf("%w: short index payload", ErrCorrupt)
	}
	kl := int(binary.LittleEndian.Uint16(p))
	if len(p) < 2+kl+ridLen {
		return nil, storage.RID{}, fmt.Errorf("%w: truncated index payload", ErrCorrupt)
	}
	key := p[2 : 2+kl]
	rid, err := storage.DecodeRID(p[2+kl:])
	if err != nil {
		return nil, storage.RID{}, fmt.Errorf("%w: index payload: %v", ErrCorrupt, err)
	}
	return key, rid, nil
}

// EncodeCheckpointMark packs a RecCheckpoint payload.
func EncodeCheckpointMark(kind byte, body []byte) []byte {
	return append([]byte{kind}, body...)
}

// DecodeCheckpointMark unpacks a RecCheckpoint payload.
func DecodeCheckpointMark(p []byte) (kind byte, body []byte, err error) {
	if len(p) == 0 || p[0] < CkptBegin {
		return 0, nil, fmt.Errorf("%w: checkpoint mark", ErrCorrupt)
	}
	return p[0], p[1:], nil
}
