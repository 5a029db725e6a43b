package noftl

import (
	"encoding/json"
	"fmt"

	"noftl/internal/catalog"
	"noftl/internal/core"
	"noftl/internal/sim"
	"noftl/internal/wal"
)

// Checkpoints are full logical snapshots: the schema (regions with their die
// assignments, tablespaces, tables, indexes) plus every live row and index
// entry.  Recovery rebuilds the database from the last complete snapshot and
// replays only the log records written after it, so no undo pass and no
// physical-page redo are needed — the replay runs through the normal
// heap/btree/buffer path.  The snapshot is JSON (struct field order makes the
// bytes deterministic) chunked into RecCheckpoint records whose TxnID carries
// the checkpoint sequence number, so recovery can tell apart the chunks of
// two checkpoints that coexist in the log.
//
// The cost is proportional to the live data, which is the trade-off for
// replacing page-level ARIES machinery in a system whose durable state
// otherwise lives only in the WAL: checkpoints are opt-in (WithCheckpointEvery)
// except after DDL, which must snapshot because schema changes are not
// logged as records.

// ckptRow is one live heap row: its RID at snapshot time (recovery builds an
// old-to-new RID translation from it) and the row image.
type ckptRow struct {
	RID []byte
	Row []byte
}

// ckptEntry is one live index entry: key and the RID bytes it stored.
type ckptEntry struct {
	Key []byte
	RID []byte
}

type ckptRegion struct {
	Name         string
	MaxChips     int
	MaxChannels  int
	MaxSizeBytes int64
	Dies         []int // the dies actually assigned, re-pinned on recovery
	GC           core.GCPolicy
}

type ckptTablespace struct {
	Name        string
	Region      string
	ExtentPages int
}

type ckptTable struct {
	Meta catalog.Table
	Rows []ckptRow
}

type ckptIndex struct {
	Meta    catalog.Index
	Entries []ckptEntry
}

// ckptSnapshot is the full logical state of the database at a quiesced
// point: no transaction is in flight when it is taken, so it is
// transaction-consistent by construction.
type ckptSnapshot struct {
	Version   int
	NextTxnID uint64 // highest transaction id handed out so far
	DefaultGC core.GCPolicy
	Regions   []ckptRegion
	Spaces    []ckptTablespace
	Tables    []ckptTable
	Indexes   []ckptIndex
}

// buildSnapshot captures the full logical state.  The caller holds the
// checkpoint quiesce lock exclusively.
func (db *DB) buildSnapshot(now sim.Time) (*ckptSnapshot, sim.Time, error) {
	snap := &ckptSnapshot{Version: 1, NextTxnID: db.txns.NextID()}
	if gc, ok := db.space.GCPolicyOf(core.DefaultRegionName); ok {
		snap.DefaultGC = gc
	}

	// Regions: catalog entries plus the live die assignment, so recovery
	// recreates each region on exactly the dies it owned.
	dies := make(map[string][]int)
	for _, r := range db.space.Stats().Regions {
		dies[r.Name] = r.Dies
	}
	for _, r := range db.cat.Regions() {
		snap.Regions = append(snap.Regions, ckptRegion{
			Name:         r.Name,
			MaxChips:     r.MaxChips,
			MaxChannels:  r.MaxChannels,
			MaxSizeBytes: r.MaxSizeBytes,
			Dies:         dies[r.Name],
			GC:           r.GC,
		})
	}
	for _, ts := range db.cat.Tablespaces() {
		if ts.Name == "SYSTEM" {
			continue // implicit: openOn creates it
		}
		snap.Spaces = append(snap.Spaces, ckptTablespace{
			Name: ts.Name, Region: ts.Region, ExtentPages: ts.ExtentPages,
		})
	}

	db.mu.RLock()
	tables := make([]*Table, 0, len(db.tables))
	for _, t := range db.tables {
		tables = append(tables, t)
	}
	indexes := make([]*Index, 0, len(db.indexes))
	for _, i := range db.indexes {
		indexes = append(indexes, i)
	}
	db.mu.RUnlock()

	for _, meta := range db.cat.Tables() {
		var t *Table
		for _, cand := range tables {
			if cand.name == meta.Name {
				t = cand
				break
			}
		}
		if t == nil {
			return nil, now, fmt.Errorf("noftl: checkpoint: table %q has no runtime object", meta.Name)
		}
		ct := ckptTable{Meta: meta}
		done, err := t.heap.Scan(now, func(rid RID, rec []byte) bool {
			row := make([]byte, len(rec))
			copy(row, rec)
			ct.Rows = append(ct.Rows, ckptRow{RID: rid.Encode(), Row: row})
			return true
		})
		if err != nil {
			return nil, now, err
		}
		now = done
		snap.Tables = append(snap.Tables, ct)
	}

	for _, meta := range db.cat.Indexes() {
		var idx *Index
		for _, cand := range indexes {
			if cand.meta.Name == meta.Name {
				idx = cand
				break
			}
		}
		if idx == nil {
			return nil, now, fmt.Errorf("noftl: checkpoint: index %q has no runtime object", meta.Name)
		}
		ci := ckptIndex{Meta: meta}
		done, err := idx.tree.Scan(now, nil, nil, func(k, v []byte) bool {
			key := make([]byte, len(k))
			copy(key, k)
			val := make([]byte, len(v))
			copy(val, v)
			ci.Entries = append(ci.Entries, ckptEntry{Key: key, RID: val})
			return true
		})
		if err != nil {
			return nil, now, err
		}
		now = done
		snap.Indexes = append(snap.Indexes, ci)
	}
	return snap, now, nil
}

// checkpointLocked takes a checkpoint.  The caller holds ckptMu exclusively
// (no transaction is in flight) and has verified the database is open.
func (db *DB) checkpointLocked(now sim.Time) (sim.Time, error) {
	// Flush dirty pages first: not needed for recovery correctness (the
	// snapshot carries the data), but it keeps the buffer pool's write-back
	// debt bounded at the same cadence as the log.
	done, err := db.pool.FlushAll(now)
	if err != nil {
		return done, err
	}
	now = done
	if db.log == nil {
		return now, nil
	}
	if db.cfg.DisableSnapshotCheckpoints {
		return db.lightCheckpointLocked(now)
	}

	snap, now, err := db.buildSnapshot(now)
	if err != nil {
		return now, err
	}
	data, err := json.Marshal(snap)
	if err != nil {
		return now, err
	}

	chunkSize := wal.MaxPayload(db.dev.Geometry().PageSize) - 8 // chunk header
	total := uint32((len(data) + chunkSize - 1) / chunkSize)
	if total == 0 {
		total = 1
	}
	db.ckptSeq++
	seq := db.ckptSeq
	var firstLSN, lastLSN uint64
	for i := uint32(0); i < total; i++ {
		lo := int(i) * chunkSize
		hi := lo + chunkSize
		if hi > len(data) {
			hi = len(data)
		}
		lsn, err := db.log.Append(wal.RecCheckpoint, seq, 0, wal.EncodeCheckpointChunk(i, total, data[lo:hi]))
		if err != nil {
			return now, err
		}
		if i == 0 {
			firstLSN = lsn
		}
		lastLSN = lsn
	}
	now, err = db.log.Flush(now)
	if err != nil {
		return now, err
	}
	// Everything below the snapshot is now redundant: recovery starts from
	// the snapshot and replays only what follows it.
	db.log.Truncate(firstLSN)

	// The counters are read by Stats() and maybeCheckpoint concurrently;
	// db.mu guards them (ckptMu would self-deadlock for a caller that holds
	// an open transaction while snapshotting stats).
	db.mu.Lock()
	db.ckptCount.Inc()
	db.ckptLastLSN = lastLSN
	db.ckptChunks.Add(int64(total))
	db.ckptBytes = int64(len(data))
	db.ckptTime = now
	db.ckptWALMark = db.log.BytesAppended()
	db.mu.Unlock()
	return now, nil
}

// lightCheckpointLocked is the reduced-durability checkpoint
// (DisableSnapshotCheckpoints): an empty RecCheckpoint marks the cut, the log
// is truncated below it and no snapshot is taken.  Recovery refuses such a
// log; the mode exists for benchmark runs where checkpoint I/O must not
// distort the measured workload.
func (db *DB) lightCheckpointLocked(now sim.Time) (sim.Time, error) {
	lsn, err := db.log.Append(wal.RecCheckpoint, 0, 0, nil)
	if err != nil {
		return now, err
	}
	now, err = db.log.Flush(now)
	if err != nil {
		return now, err
	}
	db.log.Truncate(db.log.FlushedLSN())

	db.mu.Lock()
	db.ckptCount.Inc()
	db.ckptLastLSN = lsn
	db.ckptChunks.Inc()
	db.ckptBytes = 0
	db.ckptTime = now
	db.ckptWALMark = db.log.BytesAppended()
	db.mu.Unlock()
	return now, nil
}

// maybeCheckpoint runs after a commit released the quiesce lock: if a
// checkpoint trigger (virtual-time interval or appended WAL bytes, see
// WithCheckpointEvery) is due, one goroutine takes the checkpoint while
// concurrent committers skip past.
func (db *DB) maybeCheckpoint(now sim.Time) {
	if db.log == nil || db.recovering {
		return
	}
	if db.cfg.CheckpointEvery <= 0 && db.cfg.CheckpointEveryBytes <= 0 {
		return
	}
	db.mu.RLock()
	lastAt, walMark := db.ckptTime, db.ckptWALMark
	db.mu.RUnlock()
	due := false
	if db.cfg.CheckpointEvery > 0 && now.Sub(lastAt) >= sim.Duration(db.cfg.CheckpointEvery) {
		due = true
	}
	if db.cfg.CheckpointEveryBytes > 0 && db.log.BytesAppended()-walMark >= db.cfg.CheckpointEveryBytes {
		due = true
	}
	if !due || !db.ckptRunning.CompareAndSwap(false, true) {
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
// Schema changes are not logged as WAL records, so the snapshot is the only
// thing that makes them durable; any data written after a DDL therefore
// always has a covering checkpoint to recover from.  Suppressed while
// recovery itself replays DDL, and when WAL is off.
func (db *DB) checkpointAfterDDL() error {
	if db.log == nil || db.recovering || db.cfg.DisableSnapshotCheckpoints {
		// Light mode never snapshots: schema changes are not recoverable
		// there anyway, so the DDL checkpoint would only add I/O.
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
	// Chunks is the total number of RecCheckpoint records appended.
	Chunks int64
	// LastLSN is the LSN of the last checkpoint's final chunk; recovery
	// replays only records after it.
	LastLSN uint64
	// LastBytes is the snapshot size of the last checkpoint in bytes.
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
