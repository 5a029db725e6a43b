package noftl

import (
	"encoding/json"
	"errors"
	"fmt"

	"noftl/internal/btree"
	"noftl/internal/catalog"
	"noftl/internal/core"
	"noftl/internal/flash"
	"noftl/internal/sim"
	"noftl/internal/storage"
	"noftl/internal/wal"
)

// RecoveryStats summarises what crash recovery found and did.  Reopen stores
// one on the recovered database (DB.Recovery).
type RecoveryStats struct {
	// CheckpointFound reports whether a complete checkpoint (begin mark
	// through end mark) survived; CheckpointBytes is the encoded size of its
	// records.
	CheckpointFound bool
	CheckpointBytes int64
	// SnapshotRows and SnapshotIndexEntries count what the checkpoint's
	// records restored.
	SnapshotRows         int64
	SnapshotIndexEntries int64
	// LogRecords and LogBytes cover the whole surviving record stream;
	// ReplayedRecords and ReplayedBytes only the window after the end mark
	// (what recovery actually had to redo — checkpoints exist to bound it).
	LogRecords      int
	LogBytes        int64
	ReplayedRecords int
	ReplayedBytes   int64
	// CommittedTxns and LoserTxns count transactions in the replay window:
	// winners are redone through the normal heap/btree path, losers (no
	// durable commit record) are simply not replayed.
	CommittedTxns int
	LoserTxns     int
	// SkippedRecords counts replay records that could not be applied (e.g.
	// a record of an object dropped again before the crash).
	SkippedRecords int
	// TornRecords and TornTail describe the log tail: records of the last log
	// force that the crash cut short — a torn page, and every page of the
	// force above the first one missing.  Such records were never
	// acknowledged, so losing them is correct.
	TornRecords int
	TornTail    bool
	// StaleRecords counts records from pre-truncation log segments the scan
	// discarded (their effects are covered by the checkpoint).
	StaleRecords int
}

// Recovery returns the statistics of the crash recovery that produced this
// database, or false when it was opened fresh.
func (db *DB) Recovery() (RecoveryStats, bool) {
	if db.recovery == nil {
		return RecoveryStats{}, false
	}
	return *db.recovery, true
}

// CrashImage is the device state surviving a crash: what a real machine
// would find on its flash after power loss.  Obtain one with DB.Crash, hand
// it to Reopen to run recovery.
type CrashImage struct {
	cfg Config
	dev *flash.Device
}

// Crash abandons the database without flushing anything: buffered pages,
// unforced log records and all in-memory state are lost, exactly as in a
// power failure.  Only the metrics listener is shut down (it holds an OS
// port).  The returned image can be reopened with Reopen.  Crash is also the
// way out after an injected crash (ErrCrashed): the device refuses all
// operations until Reopen revives it.
func (db *DB) Crash() *CrashImage {
	db.mu.Lock()
	db.closed = true
	db.mu.Unlock()
	if db.msrv != nil {
		db.msrv.shutdown()
	}
	return &CrashImage{cfg: db.cfg, dev: db.dev}
}

// Reopen runs crash recovery over a crashed database's device and returns a
// fresh, consistent database:
//
//  1. the flash is scanned block by block; every page's out-of-band metadata
//     (LPN, sequence number, flags) rebuilds the logical-to-physical mapping
//     and the wear state — the NoFTL model's self-describing pages make the
//     mapping recoverable from the device alone;
//  2. the surviving WAL pages are reassembled into the durable record
//     stream, which ends at the first page the last, unacknowledged log
//     force failed to bring to flash (missing or torn);
//  3. one replay loop runs from the begin mark of the last complete
//     checkpoint: its records restore schema and data, then committed
//     post-checkpoint transactions are redone in LSN order, all through the
//     normal heap/btree/buffer path; losers are discarded;
//  4. the space manager's invariants are verified and a fresh checkpoint is
//     written, so the new log is self-contained.
//
// The options are applied on top of the crashed instance's configuration;
// any armed fault plan is cleared (pass WithFaultPlan again to re-arm).
// Record identifiers are NOT stable across recovery: rows keep their
// contents and index entries keep addressing them, but RIDs are reassigned
// by the rebuild.
func Reopen(img *CrashImage, opts ...Option) (*DB, error) {
	cfg := img.cfg
	cfg.FaultPlan = FaultPlan{}
	for _, opt := range opts {
		opt(&cfg)
	}
	cfg = cfg.withDefaults()
	img.dev.Revive()
	if cfg.FaultPlan != (FaultPlan{}) {
		img.dev.Arm(cfg.FaultPlan)
	}
	return reopenOn(cfg, img.dev)
}

// scanLog reads back every surviving version of every WAL page the OOB scan
// found and reassembles the durable record stream.
func scanLog(dev *flash.Device, rep *core.AdoptionReport) (wal.ScanResult, sim.Time, error) {
	pageSize := dev.Geometry().PageSize
	images := make([]wal.PageImage, 0, len(rep.LogVersions))
	var now sim.Time
	for _, v := range rep.LogVersions {
		data, _, done, err := dev.ReadPage(now, v.Addr, make([]byte, pageSize))
		if err != nil {
			return wal.ScanResult{}, now, err
		}
		now = done
		images = append(images, wal.PageImage{LPN: v.LPN, Seq: v.Seq, Data: data})
	}
	scan, err := wal.ScanImages(images)
	if err != nil {
		return scan, now, tag(ErrCorruptLog, err)
	}
	return scan, now, nil
}

// reopenOn is the recovery pipeline described on Reopen.
func reopenOn(cfg Config, dev *flash.Device) (*DB, error) {
	space, rep, err := core.RecoverManager(dev, cfg.Space)
	if err != nil {
		return nil, err
	}
	scan, now, err := scanLog(dev, rep)
	if err != nil {
		return nil, err
	}
	// A hole the scan could not blame on the last force cut the log below
	// acknowledged records; only a checkpoint above it makes them redundant.
	beginLSN, endLSN, ckptOK := wal.LastCheckpoint(scan.Records)
	if (scan.StaleRecords > 0 || scan.Unreadable > 0) && !ckptOK {
		return nil, fmt.Errorf("%w: log prefix missing and no covering checkpoint", ErrCorruptLog)
	}

	// The rebuild is logical: drop every adopted logical page (heap, index
	// and old log alike) so the dies are empty again, then recreate regions,
	// schema and data from the checkpoint plus redo.  The old physical pages
	// become garbage the collector reclaims like any other invalid page.
	for _, lpn := range rep.DataLPNs {
		_ = space.TrimPage(lpn)
	}
	seen := make(map[core.LPN]bool)
	for _, v := range rep.LogVersions {
		if !seen[v.LPN] {
			seen[v.LPN] = true
			_ = space.TrimPage(v.LPN)
		}
	}

	db, err := openWith(cfg, dev, space)
	if err != nil {
		return nil, err
	}
	db.recovering = true
	db.clock.Observe(now)
	// The old log pages stay on flash until GC erases their blocks; the new
	// log continues above their LSNs, so the next recovery's scan takes the
	// new run, not the old tail, as the live one.
	if db.log != nil {
		db.log.SeedNextLSN(scan.MaxLSN)
	}

	rst := &RecoveryStats{
		CheckpointFound: ckptOK,
		LogRecords:      len(scan.Records),
		LogBytes:        scan.Bytes,
		TornRecords:     scan.TornRecords,
		TornTail:        scan.TornTail,
		StaleRecords:    scan.StaleRecords,
	}
	if err := db.replayLog(scan.Records, beginLSN, endLSN, rst); err != nil {
		return nil, err
	}
	if err := db.space.VerifyIntegrity(); err != nil {
		return nil, fmt.Errorf("noftl: recovery verification: %w", err)
	}

	// Seed the object-id generator past everything the old instance handed
	// out (replayLog did the same for transaction ids).
	var maxObj uint32
	db.mu.RLock()
	for id := range db.objectNames {
		if id > maxObj {
			maxObj = id
		}
	}
	db.mu.RUnlock()
	db.cat.EnsureNextObjectID(maxObj + 1)

	db.recovering = false
	db.recovery = rst
	// A fresh checkpoint makes the new log self-contained (the old log pages
	// were trimmed above, so nothing references them anymore).
	if _, err := db.Checkpoint(db.clock.Now()); err != nil {
		return nil, err
	}
	return db, nil
}

// applyMark applies one RecCheckpoint of the chosen checkpoint: the begin
// mark seeds what has no catalog entry, a schema mark goes through the same
// registration routine as the DDL that created the object (object ids
// preserved), filing tables and indexes under their ids for the replay.
func (db *DB) applyMark(p []byte, tables map[uint32]*Table, indexes map[uint32]*Index) error {
	kind, body, err := wal.DecodeCheckpointMark(p)
	if err != nil {
		return tag(ErrCorruptLog, err)
	}
	switch kind {
	case wal.CkptBegin:
		var head ckptBegin
		if err = json.Unmarshal(body, &head); err == nil {
			if head.Light {
				// The log below the mark was cut without capturing the state,
				// so the pre-checkpoint database cannot be rebuilt.  Refusing
				// is the only honest answer.
				return fmt.Errorf("%w: last checkpoint carries no state (light checkpoints give up crash recovery)", ErrCorruptLog)
			}
			db.txns.SeedNextID(head.NextTxnID)
			return db.space.SetGCPolicy(core.DefaultRegionName, head.DefaultGC)
		}
	case markRegion:
		var spec RegionSpec
		if err = json.Unmarshal(body, &spec); err == nil {
			return db.CreateRegion(spec)
		}
	case markTablespace:
		var ts catalog.Tablespace
		if err = json.Unmarshal(body, &ts); err == nil {
			return db.CreateTablespace(ts.Name, ts.Region, ts.ExtentPages)
		}
	case markTable:
		var meta catalog.Table
		if err = json.Unmarshal(body, &meta); err == nil {
			tables[meta.ObjectID], err = db.createTable(meta)
			return err
		}
	case markIndex:
		var meta catalog.Index
		if err = json.Unmarshal(body, &meta); err == nil {
			indexes[meta.ObjectID], err = db.createIndex(meta)
			return err
		}
	case wal.CkptEnd:
		return nil
	default:
		err = fmt.Errorf("unknown mark kind %d", kind)
	}
	return tag(ErrCorruptLog, err)
}

// replayLog is the one restore path.  It starts at the begin mark of the
// chosen checkpoint (beginLSN..endLSN, both zero when none survived): every
// record up to the end mark is the checkpoint's own and applied as committed;
// the records after it are the replay window, of which only committed
// transactions are redone, in LSN order, through the normal heap/btree path.
// Losers, and the partial stream of a later checkpoint that never reached its
// end mark, are skipped; their effects never reached the rebuilt state, so no
// undo is needed.  ridMap translates pre-crash RIDs to the rebuilt ones.
func (db *DB) replayLog(recs []wal.Record, beginLSN, endLSN uint64, rst *RecoveryStats) error {
	committed := make(map[uint64]bool)
	started := make(map[uint64]bool)
	var maxTxn uint64
	for _, r := range recs {
		if r.LSN <= endLSN || r.Type == wal.RecCheckpoint {
			continue
		}
		if r.Type == wal.RecCommit {
			committed[r.TxnID] = true
		}
		if r.Type == wal.RecBegin {
			started[r.TxnID] = true
		}
		if r.TxnID > maxTxn {
			maxTxn = r.TxnID
		}
	}
	db.txns.SeedNextID(maxTxn)
	rst.CommittedTxns = len(committed)
	for id := range started {
		if !committed[id] {
			rst.LoserTxns++
		}
	}

	tablesByID := make(map[uint32]*Table)
	indexesByID := make(map[uint32]*Index)
	ridMap := make(map[RID]RID)

	now := db.clock.Now()
	for _, r := range recs {
		if r.LSN < beginLSN {
			continue
		}
		inCkpt := r.LSN <= endLSN
		if inCkpt {
			rst.CheckpointBytes += int64(wal.RecordSize(r))
		} else {
			rst.ReplayedRecords++
			rst.ReplayedBytes += int64(wal.RecordSize(r))
			if r.Type == wal.RecCheckpoint || !committed[r.TxnID] {
				continue
			}
		}
		switch r.Type {
		case wal.RecCheckpoint:
			if err := db.applyMark(r.Payload, tablesByID, indexesByID); err != nil {
				return fmt.Errorf("noftl: recovery: checkpoint mark at lsn %d: %w", r.LSN, err)
			}
		case wal.RecInsert:
			rid, row, err := wal.DecodeRowPayload(r.Payload)
			if err != nil {
				return tag(ErrCorruptLog, err)
			}
			t := tablesByID[r.ObjectID]
			if t == nil {
				rst.SkippedRecords++
				continue
			}
			newRID, done, err := t.heap.Insert(now, row)
			if err != nil {
				return err
			}
			now = done
			ridMap[rid] = newRID
			if inCkpt {
				rst.SnapshotRows++
			}
		case wal.RecUpdate:
			rid, row, err := wal.DecodeRowPayload(r.Payload)
			if err != nil {
				return tag(ErrCorruptLog, err)
			}
			t := tablesByID[r.ObjectID]
			nrid, ok := ridMap[rid]
			if t == nil || !ok {
				rst.SkippedRecords++
				continue
			}
			done, err := t.heap.Update(now, nrid, row)
			if err != nil {
				if errors.Is(err, storage.ErrNotFound) {
					rst.SkippedRecords++
					continue
				}
				return err
			}
			now = done
		case wal.RecDelete:
			rid, _, err := wal.DecodeRowPayload(r.Payload)
			if err != nil {
				return tag(ErrCorruptLog, err)
			}
			t := tablesByID[r.ObjectID]
			nrid, ok := ridMap[rid]
			if t == nil || !ok {
				rst.SkippedRecords++
				continue
			}
			done, err := t.heap.Delete(now, nrid)
			if err != nil {
				if errors.Is(err, storage.ErrNotFound) {
					rst.SkippedRecords++
					continue
				}
				return err
			}
			now = done
			delete(ridMap, rid)
		case wal.RecIndexInsert:
			key, rid, err := wal.DecodeIndexInsert(r.Payload)
			if err != nil {
				return tag(ErrCorruptLog, err)
			}
			idx := indexesByID[r.ObjectID]
			if idx == nil {
				rst.SkippedRecords++
				continue
			}
			val := rid.Encode()
			if nrid, ok := ridMap[rid]; ok {
				val = nrid.Encode()
			}
			done, err := idx.tree.Insert(now, key, val)
			if err != nil {
				return err
			}
			now = done
			if inCkpt {
				rst.SnapshotIndexEntries++
			}
		case wal.RecIndexDelete:
			idx := indexesByID[r.ObjectID]
			if idx == nil {
				rst.SkippedRecords++
				continue
			}
			done, err := idx.tree.Delete(now, r.Payload)
			if err != nil {
				if errors.Is(err, btree.ErrNotFound) {
					rst.SkippedRecords++
					continue
				}
				return err
			}
			now = done
		}
	}
	db.clock.Observe(now)
	return nil
}
