// Package wal implements the write-ahead log of the reproduction's storage
// engine.  Log records are buffered in memory, packed into log pages and
// forced to the flash device on commit (a force writes everything buffered so
// far).  The log is an append-mostly object; under the paper's placement model
// it belongs in the metadata/append region, which is where the multi-region
// placement of TPC-C (tpcc.Plan) keeps it: in the default region, with HISTORY.
//
// A force is one core.WritePages batch: the pages sealed since the last force
// plus the current page, in LSN order.  The batch stripes over the dies of the
// log's region and completes when the slowest die does, so a commit and a
// checkpoint both pay the maximum of their dies' queues, not the sum.  The
// price is that a multi-page force is not atomic: the scheduler dispatches a
// batch die by die, so a crash inside it can leave any subset of its pages on
// flash.  Every page therefore carries, in its header's
// LSN field, the horizon of the force that wrote it: the first LSN that force
// had to make durable.  Nothing at or above the newest horizon on flash was
// ever acknowledged unless the force completed, in which case it has no hole.
// That is the hole rule of ScanImages: the log ends at the first missing record
// at or above the horizon, and a missing record below it is corruption.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"noftl/internal/core"
	"noftl/internal/obs"
	"noftl/internal/sim"
	"noftl/internal/storage"
)

// RecordType tags a log record.
type RecordType uint8

// Log record types.
const (
	RecBegin RecordType = iota + 1
	RecCommit
	RecAbort
	RecInsert
	RecUpdate
	RecDelete
	RecCheckpoint
	RecIndexInsert
	RecIndexDelete
)

func (t RecordType) String() string {
	switch t {
	case RecBegin:
		return "BEGIN"
	case RecCommit:
		return "COMMIT"
	case RecAbort:
		return "ABORT"
	case RecInsert:
		return "INSERT"
	case RecUpdate:
		return "UPDATE"
	case RecDelete:
		return "DELETE"
	case RecCheckpoint:
		return "CHECKPOINT"
	case RecIndexInsert:
		return "IDX-INSERT"
	case RecIndexDelete:
		return "IDX-DELETE"
	default:
		return "UNKNOWN"
	}
}

// Record is one write-ahead-log record.
type Record struct {
	LSN      uint64
	Type     RecordType
	TxnID    uint64
	ObjectID uint32
	Payload  []byte
}

// Errors returned by the log.
var (
	// ErrCorrupt reports a log record whose checksum does not match.
	ErrCorrupt = errors.New("wal: corrupt log record")
	// ErrTooLarge reports a record that does not fit into a log page.
	ErrTooLarge = errors.New("wal: record larger than a log page")
)

const recHeaderSize = 4 + 8 + 1 + 8 + 4 + 4 // crc, lsn, type, txn, obj, payloadLen

// castagnoli is the CRC-32C table (SSE4.2 instructions on amd64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// putRecord encodes r into out, which must be RecordSize(r) bytes long.  The
// payload is r.Payload followed by the parts, so a caller can hand over a
// record in pieces without packing them first.  The checksum leads the record
// and covers every byte after it, so it is taken in one pass.
func putRecord(out []byte, r Record, parts ...[]byte) {
	binary.LittleEndian.PutUint64(out[4:], r.LSN)
	out[12] = byte(r.Type)
	binary.LittleEndian.PutUint64(out[13:], r.TxnID)
	binary.LittleEndian.PutUint32(out[21:], r.ObjectID)
	binary.LittleEndian.PutUint32(out[25:], uint32(len(out)-recHeaderSize))
	p := out[recHeaderSize+copy(out[recHeaderSize:], r.Payload):]
	for _, part := range parts {
		p = p[copy(p, part):]
	}
	binary.LittleEndian.PutUint32(out, crc32.Checksum(out[4:], castagnoli))
}

func decodeRecord(b []byte) (Record, error) {
	if len(b) < recHeaderSize {
		return Record{}, fmt.Errorf("%w: short record", ErrCorrupt)
	}
	r := Record{
		LSN:      binary.LittleEndian.Uint64(b[4:]),
		Type:     RecordType(b[12]),
		TxnID:    binary.LittleEndian.Uint64(b[13:]),
		ObjectID: binary.LittleEndian.Uint32(b[21:]),
	}
	plen := binary.LittleEndian.Uint32(b[25:])
	if int(plen) != len(b)-recHeaderSize {
		return Record{}, fmt.Errorf("%w: payload length mismatch", ErrCorrupt)
	}
	if crc32.Checksum(b[4:], castagnoli) != binary.LittleEndian.Uint32(b) {
		return Record{}, fmt.Errorf("%w: checksum mismatch for lsn %d", ErrCorrupt, r.LSN)
	}
	r.Payload = append([]byte(nil), b[recHeaderSize:]...)
	return r, nil
}

// Log is the write-ahead log manager.  It is not safe for concurrent use.
type Log struct {
	mgr      *core.Manager
	hint     core.Hint
	pageSize int

	nextLSN    uint64
	flushedLSN uint64
	horizon    uint64 // first LSN the newest force had to make durable

	cur      []byte   // current (partial) log page image
	curLPN   core.LPN // logical page the current page will be written to
	sealedWr []sealedPage
	pages    []logPage // every live log page, in allocation order; the last is the current one

	batch []core.PageWrite // the write batch a force reuses

	counts Stats // the counts; Stats fills in the log's state

	// bytesLive is the total of the live pages' bytes: Truncate moves a
	// dropped page's bytes from it to the trimmed counter (appended = trimmed
	// + live between two ResetCounters calls).
	bytesLive int64

	// A caller whose records an earlier force covered returns no earlier
	// than that force's end.
	flushDoneAt sim.Time // virtual end of the latest flush

	tracer *obs.Tracer // nil = tracing off
}

type sealedPage struct {
	lpn  core.LPN
	data []byte
}

// logPage is the log's record of one live page.
type logPage struct {
	lpn    core.LPN
	maxLSN uint64 // highest LSN the page holds, set when it is sealed
	bytes  int64  // encoded record bytes the page holds
	sealed bool
}

// New creates a log writing pages through mgr with the given placement hint
// (normally the hint of the log object's tablespace).
func New(mgr *core.Manager, hint core.Hint, pageSize int) *Log {
	l := &Log{
		mgr:      mgr,
		hint:     hint,
		pageSize: pageSize,
		nextLSN:  1,
	}
	l.hint.Flags |= flashFlagLog
	l.openPage()
	return l
}

// flashFlagLog mirrors flash.FlagLog without importing the flash package
// here (the hint flag bits are defined by the flash OOB metadata).
const flashFlagLog uint16 = 1

func (l *Log) openPage() {
	l.curLPN = l.mgr.AllocateLPNs(1)
	l.cur = l.mgr.PageBuf()
	storage.InitPage(l.cur, storage.PageTypeLog, l.hint.ObjectID, uint64(l.curLPN))
	l.pages = append(l.pages, logPage{lpn: l.curLPN})
}

// AttachObs wires the log to the trace recorder.  A nil tracer (the default)
// keeps tracing off.
func (l *Log) AttachObs(tr *obs.Tracer) { l.tracer = tr }

// ResetCounters zeroes the log's counts (after warm-up).  LSNs, the page
// list and BytesLive describe the log itself and are untouched.
func (l *Log) ResetCounters() { l.counts = Stats{} }

// Stats is a snapshot of the log: its counts since the last ResetCounters,
// which the log keeps in a Stats value of its own, and its state.
type Stats struct {
	// Appended is the number of records appended.
	Appended int64
	// Flushes is the number of log forces (by Flush or Commit) that wrote
	// pages.
	Flushes int64
	// Pages is the number of live log pages.
	Pages int64
	// FlushedLSN is the highest LSN known to be durable.
	FlushedLSN uint64
	// BytesAppended, BytesTrimmed and BytesLive reconcile the log's byte
	// ledger: Appended = Trimmed + Live always holds, across checkpoints and
	// truncations.  BytesLive, the record bytes the live pages hold, bounds
	// what a crash right now would replay.
	BytesAppended int64
	BytesTrimmed  int64
	BytesLive     int64
	// PagesTrimmed counts log pages dropped by Truncate.
	PagesTrimmed int64
}

// Stats returns a snapshot of the log's counts and state.
func (l *Log) Stats() Stats {
	st := l.counts
	st.Pages, st.FlushedLSN, st.BytesLive = int64(len(l.pages)), l.flushedLSN, l.bytesLive
	return st
}

// SeedNextLSN makes the log continue at last+2.  Recovery calls it on the
// fresh log, before anything is appended, with the highest LSN the crashed
// instance's log pages carry; skipping one LSN keeps the new run from ever
// being contiguous with a surviving old one (see ScanImages).
func (l *Log) SeedNextLSN(last uint64) {
	l.nextLSN = last + 2
	l.flushedLSN = last + 1
}

// Append adds a record to the log buffer and returns its LSN.  Its payload is
// the concatenation of the parts given, written straight into the log page.
// The record is not durable until Flush returns.
func (l *Log) Append(typ RecordType, txnID uint64, objectID uint32, payload ...[]byte) (uint64, error) {
	size := recHeaderSize
	for _, part := range payload {
		size += len(part)
	}
	if size-recHeaderSize > MaxPayload(l.pageSize) {
		return 0, fmt.Errorf("%w: %d payload bytes", ErrTooLarge, size-recHeaderSize)
	}
	rec := Record{LSN: l.nextLSN, Type: typ, TxnID: txnID, ObjectID: objectID}
	_, dst, err := storage.AllocRecord(l.cur, size)
	if err != nil {
		// Current page is full: seal it and start a new one.
		l.sealedWr = append(l.sealedWr, sealedPage{lpn: l.curLPN, data: l.cur})
		cur := &l.pages[len(l.pages)-1]
		cur.maxLSN, cur.sealed = l.nextLSN-1, true
		l.openPage()
		if _, dst, err = storage.AllocRecord(l.cur, size); err != nil {
			return 0, err
		}
	}
	putRecord(dst, rec, payload...)
	l.nextLSN++
	l.counts.Appended++
	l.counts.BytesAppended += int64(size)
	l.bytesLive += int64(size)
	l.pages[len(l.pages)-1].bytes += int64(size)
	if l.tracer.Enabled() {
		// Append is a pure memory operation: it carries no virtual-time span
		// of its own (durability cost lands on the Flush event).
		l.tracer.Record(obs.Event{
			Class: obs.ClassWALAppend, Op: uint8(typ),
			Die: -1, Block: -1, Page: -1, Region: int32(l.hint.Region),
			A: int64(rec.LSN), B: int64(size),
		})
	}
	return rec.LSN, nil
}

// Flush forces every appended record to the device (sealed full pages plus
// the current partial page, as one die-striped batch) and returns the
// caller's advanced virtual time.
//
// A force of several pages is not atomic (see the package comment): until
// Flush returns nil, any subset of its pages may be on flash, and recovery
// keeps the records up to the first one missing.  What it made durable is
// only acknowledged by the nil return.
func (l *Log) Flush(now sim.Time) (sim.Time, error) {
	return l.force(now, 0)
}

// Commit makes the record at lsn (and everything before it) durable and
// returns the virtual time at which durability was reached for a committer
// whose current virtual time is now.
func (l *Log) Commit(now sim.Time, lsn uint64) (sim.Time, error) {
	return l.force(now, lsn)
}

// force makes every record up to lsn durable (lsn 0: everything appended so
// far).  A caller whose records an earlier force covered returns no earlier
// than the latest force's end; otherwise it forces everything appended,
// starting at now, and returns that force's end.  A force runs to completion
// within the caller's database operation, so no two committers share one.
func (l *Log) force(now sim.Time, lsn uint64) (sim.Time, error) {
	if lsn == 0 {
		lsn = l.nextLSN - 1
	}
	if l.flushedLSN >= lsn {
		return sim.MaxTime(now, l.flushDoneAt), nil
	}
	return l.flushGroup(now)
}

// flushGroup forces everything appended so far as one write batch: the
// sealed pages and the current page, in LSN order, each stamped with the
// force's horizon.  The device keeps the buffers, so the log writes on in
// copies: the current page after every force, and the sealed pages after a
// failed one, which a retry stamps again.
func (l *Log) flushGroup(now sim.Time) (sim.Time, error) {
	hw := l.nextLSN - 1
	newlyDurable := hw - l.flushedLSN
	l.horizon = l.flushedLSN + 1
	batch := l.batch[:0]
	for _, sp := range l.sealedWr {
		storage.SetPageLSN(sp.data, l.horizon)
		batch = append(batch, core.PageWrite{LPN: sp.lpn, Data: sp.data, Hint: l.hint})
	}
	storage.SetPageLSN(l.cur, l.horizon)
	batch = append(batch, core.PageWrite{LPN: l.curLPN, Data: l.cur, Hint: l.hint})
	done, err := l.mgr.WritePages(now, batch)
	clear(batch) // drop the page references
	l.batch = batch
	l.cur = l.copyPage(l.cur)
	if err != nil {
		// The sealed pages stay queued, so a retry re-writes them.
		for i := range l.sealedWr {
			l.sealedWr[i].data = l.copyPage(l.sealedWr[i].data)
		}
		return now, fmt.Errorf("wal: flush: %w", err)
	}
	for _, sp := range l.sealedWr {
		l.mgr.Release(sp.data)
	}
	clear(l.sealedWr)
	l.sealedWr = l.sealedWr[:0]
	if hw > l.flushedLSN {
		l.flushedLSN = hw
	}
	if done > l.flushDoneAt {
		l.flushDoneAt = done
	}
	l.counts.Flushes++
	if l.tracer.Enabled() {
		l.tracer.Record(obs.Event{
			Class: obs.ClassWALSync, Die: -1, Block: -1, Page: -1,
			Region: int32(l.hint.Region), Start: now, End: done,
			A: int64(newlyDurable), B: int64(l.flushedLSN),
		})
	}
	return done, nil
}

// copyPage returns a writable copy of a page the log handed to a write.
func (l *Log) copyPage(page []byte) []byte {
	cp := l.mgr.PageBuf()
	copy(cp, page)
	l.mgr.Release(page)
	return cp
}

// Truncate drops every sealed log page whose records all lie strictly below
// upToLSN, trimming them on the device (checkpointing).  The current page,
// pages that were never flushed and pages holding records of the newest force
// are never dropped: a trimmed page can vanish at any time, and a record
// missing at or above the newest horizon reads as a force cut short by a
// crash (ScanImages).  It returns the number of pages removed.
func (l *Log) Truncate(upToLSN uint64) int {
	upToLSN = min(upToLSN, l.horizon)
	dropped := 0
	kept := l.pages[:0]
	for _, p := range l.pages {
		// The current page is the one page never sealed.
		if !p.sealed || p.maxLSN >= upToLSN || l.mgr.TrimPage(p.lpn) != nil {
			kept = append(kept, p)
			continue
		}
		l.counts.BytesTrimmed += p.bytes
		l.bytesLive -= p.bytes
		l.counts.PagesTrimmed++
		dropped++
	}
	l.pages = kept
	return dropped
}
