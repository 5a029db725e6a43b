package noftl

import (
	"encoding/json"
	"fmt"

	"noftl/internal/core"
	"noftl/internal/sim"
	"noftl/internal/storage"
	"noftl/internal/wal"
)

// A checkpoint is a rewritten log prefix.  Under the quiesce lock it appends,
// in one run of ordinary WAL records,
//
//	RecCheckpoint begin   sequence number (TxnID), ckptBegin body
//	RecCheckpoint schema  one mark per region (with the dies it is pinned
//	                      to), tablespace, table and index: the catalog entry
//	RecInsert             every live row          (object id, RID, row image)
//	RecIndexInsert        every live index entry  (object id, key, RID)
//	RecCheckpoint end
//
// forces the log and truncates it below the begin mark.  The force is one
// batch striped over the dies of the log's region, so a checkpoint costs the
// device the time of its busiest die, not of all its pages in a row; it is not
// atomic, and the checkpoint exists once the force has returned: after a crash
// inside it the log ends at the first page that did not reach flash, and what
// lies above — even a begin…end run that happens to be whole — is dropped
// (wal.ScanImages).  Rows and entries go straight from the heap/tree scan into
// the log through one reused payload buffer, under the reserved transaction id
// wal.CkptTxnID.  Recovery is one replay loop (replayLog): it starts at the
// newest begin mark whose end mark
// is durable, takes everything up to that end mark as committed, and filters
// what follows by commit record — the same RecInsert case restores a
// checkpointed row and redoes a logged one.  No undo pass and no physical
// page redo exist; the replay runs through the normal heap/btree/buffer path.
//
// The cost is proportional to the live data, the trade-off for replacing
// page-level ARIES machinery in a system whose durable state otherwise lives
// only in the WAL: checkpoints are opt-in (WithCheckpointEvery) except after
// DDL, which must checkpoint because schema changes are logged nowhere else.
// The host memory a checkpoint needs beyond the log's own page buffers is
// constant.

// ckptBegin is the body of a checkpoint's begin mark.
type ckptBegin struct {
	NextTxnID uint64        // highest transaction id handed out so far
	DefaultGC core.GCPolicy // the default region has no catalog entry to carry it
	// Light marks the reduced-durability form (DisableSnapshotCheckpoints):
	// the end mark follows at once and the log is cut without capturing the
	// state below it, so recovery refuses such a log.  It exists for benchmark
	// runs where checkpoint I/O must not distort the measured workload.
	Light bool
}

// Schema mark kinds, the marks between a checkpoint's begin and end (applyMark
// is their reader).
const (
	markRegion byte = wal.CkptBody + iota
	markTablespace
	markTable
	markIndex
)

// ckptStream appends the records of one checkpoint.  The first failure
// sticks in err and turns every later append into a no-op.
type ckptStream struct {
	log     *wal.Log
	seq     uint64
	buf     []byte // payload buffer reused for every row and index entry
	lsn     uint64 // LSN of the newest record
	records int64
	bytes   int64 // encoded size of the records
	err     error
}

func (s *ckptStream) append(typ wal.RecordType, txn uint64, obj uint32, payload []byte) bool {
	if s.err != nil {
		return false
	}
	s.lsn, s.err = s.log.Append(typ, txn, obj, payload)
	s.records++
	s.bytes += int64(wal.RecordSize(wal.Record{Payload: payload}))
	return s.err == nil
}

// mark appends a RecCheckpoint of the given kind; body (nil for the end
// mark) travels as JSON.
func (s *ckptStream) mark(kind byte, body any) {
	var data []byte
	if body != nil && s.err == nil {
		data, s.err = json.Marshal(body)
	}
	s.append(wal.RecCheckpoint, s.seq, 0, wal.EncodeCheckpointMark(kind, data))
}

// markFits rejects, before a DDL registers it, a catalog entry whose schema
// mark would not fit one log record: every later checkpoint would fail on it.
func (db *DB) markFits(entry any) error {
	body, err := json.Marshal(entry)
	if max := wal.MaxPayload(db.dev.Geometry().PageSize) - 1; err == nil && db.log != nil && len(body) > max {
		err = tag(ErrTooLarge, fmt.Errorf("catalog entry of %d bytes exceeds the %d a log record carries", len(body), max))
	}
	return err
}

// streamState appends the schema and every live row and index entry.  The
// caller holds the checkpoint quiesce lock exclusively, so no transaction is
// in flight and the state is transaction-consistent by construction.
func (db *DB) streamState(s *ckptStream, now sim.Time) (sim.Time, error) {
	// Regions carry their live die assignment, so recovery recreates each on
	// exactly the dies it owned.
	dies := make(map[string][]int)
	for _, r := range db.space.Stats().Regions {
		dies[r.Name] = r.Dies
	}
	for _, r := range db.cat.Regions() {
		gc := r.GC
		s.mark(markRegion, RegionSpec{Name: r.Name, MaxChips: r.MaxChips, MaxChannels: r.MaxChannels,
			MaxSizeBytes: r.MaxSizeBytes, Dies: dies[r.Name], GC: &gc})
	}
	for _, ts := range db.cat.Tablespaces() {
		if ts.Name != "SYSTEM" { // implicit: openWith creates it
			s.mark(markTablespace, ts)
		}
	}
	for _, meta := range db.cat.Tables() {
		t, ok := db.Table(meta.Name)
		if !ok {
			return now, fmt.Errorf("noftl: checkpoint: table %q has no runtime object", meta.Name)
		}
		s.mark(markTable, meta)
		done, err := t.heap.Scan(now, func(rid RID, row []byte) bool {
			s.buf = wal.AppendRowPayload(s.buf[:0], rid, row)
			return s.append(wal.RecInsert, wal.CkptTxnID, meta.ObjectID, s.buf)
		})
		if err != nil {
			return now, err
		}
		now = done
	}
	for _, meta := range db.cat.Indexes() {
		idx, ok := db.Index(meta.Name)
		if !ok {
			return now, fmt.Errorf("noftl: checkpoint: index %q has no runtime object", meta.Name)
		}
		s.mark(markIndex, meta)
		done, err := idx.tree.Scan(now, nil, nil, func(key, val []byte) bool {
			rid, err := storage.DecodeRID(val)
			if err != nil {
				s.err = err
				return false
			}
			s.buf = wal.AppendIndexInsert(s.buf[:0], key, rid)
			return s.append(wal.RecIndexInsert, wal.CkptTxnID, meta.ObjectID, s.buf)
		})
		if err != nil {
			return now, err
		}
		now = done
	}
	return now, s.err
}

// checkpointLocked takes a checkpoint.  The caller holds ckptMu exclusively
// (no transaction is in flight) and has verified the database is open.
func (db *DB) checkpointLocked(now sim.Time) (sim.Time, error) {
	// Flush dirty pages first: not needed for recovery correctness (the
	// checkpoint carries the data), but it keeps the buffer pool's write-back
	// debt bounded at the same cadence as the log.
	now, err := db.pool.FlushAll(now)
	if err != nil || db.log == nil {
		return now, err
	}
	db.ckptSeq++
	s := &ckptStream{log: db.log, seq: db.ckptSeq}
	head := ckptBegin{NextTxnID: db.txns.NextID(), Light: db.cfg.DisableSnapshotCheckpoints}
	head.DefaultGC, _ = db.space.GCPolicyOf(core.DefaultRegionName)
	s.mark(wal.CkptBegin, head)
	beginLSN := s.lsn
	if !head.Light {
		now, err = db.streamState(s, now)
	}
	if err == nil { // never close a stream that broke off
		s.mark(wal.CkptEnd, nil)
		err = s.err
	}
	if err == nil {
		if now, err = db.log.Flush(now); err == nil {
			// Everything below the begin mark is now redundant: recovery starts there.
			db.log.Truncate(beginLSN)
		}
	}
	// The counters are read by Stats() and maybeCheckpoint concurrently;
	// db.mu guards them (ckptMu would self-deadlock for a caller that holds
	// an open transaction while snapshotting stats).
	db.mu.Lock()
	defer db.mu.Unlock()
	// Also after a failure, which leaves a begin mark and a partial stream in
	// the log (recovery skips them, the next checkpoint truncates them): the
	// byte trigger then retries once per budget, not after every commit.
	db.ckptWALMark = db.log.BytesAppended()
	if err != nil {
		return now, err
	}
	db.ckptCount.Inc()
	db.ckptLastLSN = s.lsn
	db.ckptChunks.Add(s.records)
	db.ckptBytes = s.bytes
	db.ckptTime = now
	return now, nil
}

// maybeCheckpoint runs after a commit released the quiesce lock: once
// CheckpointEveryBytes of WAL have been appended since the last checkpoint
// (see WithCheckpointEvery), one goroutine takes the next while concurrent
// committers skip past.
func (db *DB) maybeCheckpoint(now sim.Time) {
	if db.log == nil || db.recovering || db.cfg.CheckpointEveryBytes <= 0 {
		return
	}
	db.mu.RLock()
	walMark := db.ckptWALMark
	db.mu.RUnlock()
	if db.log.BytesAppended()-walMark < db.cfg.CheckpointEveryBytes ||
		!db.ckptRunning.CompareAndSwap(false, true) {
		return
	}
	defer db.ckptRunning.Store(false)
	if db.checkOpen() != nil {
		return
	}
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	_, _ = db.checkpointLocked(now)
}

// checkpointAfterDDL takes a synchronous checkpoint after a schema change.
// Schema changes are not logged on their own, so the checkpoint's schema
// marks are what makes them durable; any data written after a DDL therefore
// always has a covering checkpoint to recover from.  Suppressed while
// recovery itself replays DDL, and when WAL is off.
func (db *DB) checkpointAfterDDL() error {
	if db.log == nil || db.recovering || db.cfg.DisableSnapshotCheckpoints {
		// Light checkpoints carry no schema marks: schema changes are not
		// recoverable there anyway, so the DDL checkpoint would only add I/O.
		return nil
	}
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	_, err := db.checkpointLocked(db.clock.Now())
	return err
}

// CheckpointStats is a snapshot of the checkpoint subsystem's counters
// (nested in Stats().WAL).
type CheckpointStats struct {
	// Count is the number of checkpoints taken.
	Count int64
	// Chunks is the total number of records checkpoints appended (marks,
	// rows and index entries).
	Chunks int64
	// LastLSN is the LSN of the last checkpoint's end mark; recovery filters
	// the records after it by commit.
	LastLSN uint64
	// LastBytes is the encoded size of the last checkpoint's records.
	LastBytes int64
	// LastAt is the virtual time of the last checkpoint.
	LastAt sim.Time
}

// checkpointStats snapshots the checkpoint counters; the WAL must be on.
func (db *DB) checkpointStats() CheckpointStats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return CheckpointStats{
		Count:     db.ckptCount.Value(),
		Chunks:    db.ckptChunks.Value(),
		LastLSN:   db.ckptLastLSN,
		LastBytes: db.ckptBytes,
		LastAt:    db.ckptTime,
	}
}
