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
	// CheckpointFound reports whether a complete checkpoint snapshot
	// survived; CheckpointBytes is its decoded size.
	CheckpointFound bool
	CheckpointBytes int64
	// SnapshotRows and SnapshotIndexEntries count what the snapshot restored.
	SnapshotRows         int64
	SnapshotIndexEntries int64
	// LogRecords and LogBytes cover the whole surviving record stream;
	// ReplayedRecords and ReplayedBytes only the window after the checkpoint
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
	// TornRecords and TornTail describe the log tail: records lost from the
	// final, possibly interrupted log write.  Torn records were never
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
//     stream, detecting and truncating a torn final write;
//  3. the last complete checkpoint snapshot restores schema and data, then
//     committed post-checkpoint transactions are replayed in LSN order
//     through the normal heap/btree/buffer path; losers are discarded;
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

// reopenOn is the recovery pipeline described on Reopen.
func reopenOn(cfg Config, dev *flash.Device) (*DB, error) {
	space, rep, err := core.RecoverManager(dev, cfg.Space)
	if err != nil {
		return nil, err
	}

	// Read back every surviving version of every WAL page.
	pageSize := dev.Geometry().PageSize
	images := make([]wal.PageImage, 0, len(rep.LogVersions))
	var now sim.Time
	for _, v := range rep.LogVersions {
		data, _, done, err := dev.ReadPage(now, v.Addr, make([]byte, pageSize))
		if err != nil {
			return nil, err
		}
		now = done
		images = append(images, wal.PageImage{LPN: v.LPN, Seq: v.Seq, Data: data})
	}
	scan, err := wal.ScanImages(images)
	if err != nil {
		return nil, tag(ErrCorruptLog, err)
	}
	snapData, endLSN, snapOK := wal.LastCheckpoint(scan.Records)
	if (scan.StaleRecords > 0 || scan.Unreadable > 0) && !snapOK {
		return nil, fmt.Errorf("%w: log prefix missing and no covering checkpoint", ErrCorruptLog)
	}

	// The rebuild is logical: drop every adopted logical page (heap, index
	// and old log alike) so the dies are empty again, then recreate regions,
	// schema and data from the snapshot plus redo.  The old physical pages
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
		LogRecords:   len(scan.Records),
		LogBytes:     scan.Bytes,
		TornRecords:  scan.TornRecords,
		TornTail:     scan.TornTail,
		StaleRecords: scan.StaleRecords,
	}

	ridMap := make(map[RID]RID)
	var snap ckptSnapshot
	if snapOK && len(snapData) > 0 {
		if err := json.Unmarshal(snapData, &snap); err != nil {
			return nil, tag(ErrCorruptLog, err)
		}
		rst.CheckpointFound = true
		rst.CheckpointBytes = int64(len(snapData))
		if err := db.restoreSnapshot(&snap, ridMap, rst); err != nil {
			return nil, err
		}
	} else if snapOK {
		// An empty checkpoint record is the light (reduced-durability) form:
		// the log below it was truncated without capturing a snapshot, so the
		// pre-checkpoint database cannot be rebuilt.  Refusing is the only
		// honest answer.
		return nil, fmt.Errorf("%w: last checkpoint carries no snapshot (light checkpoints give up crash recovery)", ErrCorruptLog)
	}

	if err := db.replayLog(scan.Records, endLSN, ridMap, rst); err != nil {
		return nil, err
	}

	if err := db.space.VerifyIntegrity(); err != nil {
		return nil, fmt.Errorf("noftl: recovery verification: %w", err)
	}

	// Seed id generators past everything the old instance handed out.
	maxTxn := snap.NextTxnID
	for _, r := range scan.Records {
		if r.Type != wal.RecCheckpoint && r.TxnID > maxTxn {
			maxTxn = r.TxnID
		}
	}
	db.txns.SeedNextID(maxTxn)
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

// restoreSnapshot recreates schema and data from a checkpoint snapshot,
// filling ridMap with the old-RID-to-new-RID translation replay needs.
func (db *DB) restoreSnapshot(snap *ckptSnapshot, ridMap map[RID]RID, rst *RecoveryStats) error {
	if err := db.space.SetGCPolicy(core.DefaultRegionName, snap.DefaultGC); err != nil {
		return err
	}
	for _, r := range snap.Regions {
		spec := RegionSpec{
			Name:         r.Name,
			MaxChips:     r.MaxChips,
			MaxChannels:  r.MaxChannels,
			MaxSizeBytes: r.MaxSizeBytes,
			Dies:         r.Dies,
		}
		gc := r.GC
		spec.GC = &gc
		if err := db.CreateRegion(spec); err != nil {
			return fmt.Errorf("noftl: recovery: region %q: %w", r.Name, err)
		}
	}
	for _, ts := range snap.Spaces {
		if err := db.CreateTablespace(ts.Name, ts.Region, ts.ExtentPages); err != nil {
			return fmt.Errorf("noftl: recovery: tablespace %q: %w", ts.Name, err)
		}
	}
	now := db.clock.Now()
	for _, ct := range snap.Tables {
		t, err := db.createTableWithID(ct.Meta)
		if err != nil {
			return fmt.Errorf("noftl: recovery: table %q: %w", ct.Meta.Name, err)
		}
		for _, row := range ct.Rows {
			oldRID, err := storage.DecodeRID(row.RID)
			if err != nil {
				return tag(ErrCorruptLog, err)
			}
			newRID, done, err := t.heap.Insert(now, row.Row)
			if err != nil {
				return err
			}
			now = done
			ridMap[oldRID] = newRID
			rst.SnapshotRows++
		}
	}
	for _, ci := range snap.Indexes {
		idx, err := db.createIndexWithID(ci.Meta)
		if err != nil {
			return fmt.Errorf("noftl: recovery: index %q: %w", ci.Meta.Name, err)
		}
		for _, e := range ci.Entries {
			val := e.RID
			if oldRID, err := storage.DecodeRID(e.RID); err == nil {
				if newRID, ok := ridMap[oldRID]; ok {
					val = newRID.Encode()
				}
			}
			done, err := idx.tree.Insert(now, e.Key, val)
			if err != nil {
				return err
			}
			now = done
			rst.SnapshotIndexEntries++
		}
	}
	db.clock.Observe(now)
	return nil
}

// replayLog redoes the committed transactions of the post-checkpoint window
// through the normal heap/btree path, in LSN order.  Losers are not
// replayed; their effects never reached the rebuilt state, so no undo is
// needed.
func (db *DB) replayLog(recs []wal.Record, afterLSN uint64, ridMap map[RID]RID, rst *RecoveryStats) error {
	committed := make(map[uint64]bool)
	started := make(map[uint64]bool)
	for _, r := range recs {
		if r.LSN <= afterLSN || r.Type == wal.RecCheckpoint {
			continue
		}
		if r.Type == wal.RecCommit {
			committed[r.TxnID] = true
		}
		if r.Type == wal.RecBegin {
			started[r.TxnID] = true
		}
	}
	rst.CommittedTxns = len(committed)
	for id := range started {
		if !committed[id] {
			rst.LoserTxns++
		}
	}

	db.mu.RLock()
	tablesByID := make(map[uint32]*Table, len(db.tables))
	for _, t := range db.tables {
		tablesByID[t.objectID] = t
	}
	indexesByID := make(map[uint32]*Index, len(db.indexes))
	for _, i := range db.indexes {
		indexesByID[i.meta.ObjectID] = i
	}
	db.mu.RUnlock()

	translate := func(old RID) (RID, bool) {
		if nrid, ok := ridMap[old]; ok {
			return nrid, true
		}
		return RID{}, false
	}

	now := db.clock.Now()
	for _, r := range recs {
		if r.LSN <= afterLSN {
			continue
		}
		rst.ReplayedRecords++
		rst.ReplayedBytes += int64(wal.RecordSize(r))
		if !committed[r.TxnID] && r.Type != wal.RecCheckpoint {
			continue
		}
		switch r.Type {
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
		case wal.RecUpdate:
			rid, row, err := wal.DecodeRowPayload(r.Payload)
			if err != nil {
				return tag(ErrCorruptLog, err)
			}
			t := tablesByID[r.ObjectID]
			nrid, ok := translate(rid)
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
			nrid, ok := translate(rid)
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
			if nrid, ok := translate(rid); ok {
				val = nrid.Encode()
			}
			done, err := idx.tree.Insert(now, key, val)
			if err != nil {
				return err
			}
			now = done
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

// createTableWithID registers a table under its pre-crash object id (the
// recovery twin of CreateTable, which allocates a fresh id).
func (db *DB) createTableWithID(meta catalog.Table) (*Table, error) {
	ts, err := db.tablespace(meta.Tablespace)
	if err != nil {
		return nil, err
	}
	if err := db.cat.AddTable(meta); err != nil {
		return nil, publicErr(err)
	}
	heap := storage.NewHeapFile(meta.Name, meta.ObjectID, ts, db.pool)
	t := &Table{db: db, heap: heap, name: meta.Name, objectID: meta.ObjectID}
	db.mu.Lock()
	db.tables[meta.Name] = t
	db.objectNames[meta.ObjectID] = meta.Name
	db.mu.Unlock()
	db.objStats.Register(meta.Name, "table", ts.Name())
	return t, nil
}

// createIndexWithID registers an index under its pre-crash object id.
func (db *DB) createIndexWithID(meta catalog.Index) (*Index, error) {
	ts, err := db.tablespace(meta.Tablespace)
	if err != nil {
		return nil, err
	}
	if err := db.cat.AddIndex(meta); err != nil {
		return nil, publicErr(err)
	}
	tree, _, err := btreeNew(db.clock.Now(), meta.Name, meta.ObjectID, ts, db.pool)
	if err != nil {
		return nil, err
	}
	idx := &Index{db: db, tree: tree, meta: meta}
	db.mu.Lock()
	db.indexes[meta.Name] = idx
	db.objectNames[meta.ObjectID] = meta.Name
	db.mu.Unlock()
	db.objStats.Register(meta.Name, "index", ts.Name())
	return idx, nil
}
