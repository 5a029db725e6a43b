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
	// records: the marks and page descriptors.
	CheckpointFound bool
	CheckpointBytes int64
	// AdoptedPages counts the data pages of the checkpoint's image, mapped
	// where they lay on flash; DiscardedVersions the page versions written
	// after the checkpoint, by winners (redone from the log) and losers alike,
	// and left behind as garbage; ReprogrammedPages the adopted pages that had
	// such a version and were written once more so it can never pass for a
	// checkpointed one.
	AdoptedPages      int
	DiscardedVersions int
	ReprogrammedPages int
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
// power failure.  The returned image can be reopened with Reopen.  Crash is
// also the way out after an injected crash (ErrCrashed): the device refuses
// all operations until Reopen revives it.
func (db *DB) Crash() *CrashImage {
	db.baton.Lock()
	db.closed = true
	db.baton.Unlock()
	return &CrashImage{cfg: db.cfg, dev: db.dev}
}

// Reopen runs crash recovery over a crashed database's device and returns a
// fresh, consistent database:
//
//  1. the flash is surveyed block by block: wear, block states and the
//     out-of-band metadata (LPN, sequence number, flags) of every programmed
//     page — self-describing pages make the state recoverable from the device
//     alone;
//  2. the surviving WAL pages are reassembled into the durable record stream,
//     which ends at the first page the last, unacknowledged log force failed
//     to bring to flash (missing or torn);
//  3. the marks of the last complete checkpoint recreate the regions on their
//     dies and the schema, and attach every table and index to the pages its
//     descriptor lists; each of those pages is mapped to its newest version at
//     or below the checkpoint's write sequence, where it lies, and everything
//     else on flash is garbage.  A page that also has a newer version is
//     written once more, or a later checkpoint's higher sequence would make
//     the discarded version the checkpointed one;
//  4. the committed transactions after the end mark are redone in LSN order
//     through the normal heap/btree/buffer path (replayLog); losers are not,
//     and what their evicted pages wrote is among the garbage of step 3;
//  5. the space manager's invariants are verified, a fresh checkpoint makes
//     the new log self-contained, and the old log is trimmed.
//
// The options are applied on top of the crashed instance's configuration;
// any armed fault plan is cleared (pass WithFaultPlan again to re-arm).
// Record identifiers are stable across recovery for checkpointed rows, which
// stay in their pages; rows inserted after the checkpoint keep their contents
// and their index entries keep addressing them, under the RIDs the redo
// assigns.
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

// scanLog reads back every surviving version of every WAL page the survey
// found and reassembles the durable record stream.
func scanLog(dev *flash.Device, sv *core.Survey) (wal.ScanResult, sim.Time, error) {
	versions := sv.LogVersions()
	images := make([]wal.PageImage, 0, len(versions))
	var now sim.Time
	for _, v := range versions {
		data, _, done, err := dev.ReadPage(now, v.Addr, nil) // the device's own bytes
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
	space, survey := core.SurveyDevice(dev, cfg.Space)
	scan, now, err := scanLog(dev, survey)
	if err != nil {
		return nil, err
	}
	// A hole the scan could not blame on the last force cut the log below
	// acknowledged records; only a checkpoint above it makes them redundant.
	beginLSN, endLSN, ckptOK := wal.LastCheckpoint(scan.Records)
	if (scan.StaleRecords > 0 || scan.Unreadable > 0) && !ckptOK {
		return nil, fmt.Errorf("%w: log prefix missing and no covering checkpoint", ErrCorruptLog)
	}

	db := openWith(cfg, dev, space)
	db.recovering = true
	db.clock.Observe(now)
	// The new log continues above the old one's LSNs, so the next recovery's
	// scan takes the new run, not the old tail, as the live one.
	db.log.SeedNextLSN(scan.MaxLSN)

	rst := &RecoveryStats{
		CheckpointFound: ckptOK,
		LogRecords:      len(scan.Records),
		LogBytes:        scan.Bytes,
		TornRecords:     scan.TornRecords,
		TornTail:        scan.TornTail,
		StaleRecords:    scan.StaleRecords,
	}
	st, err := db.restoreCheckpoint(scan.Records, beginLSN, endLSN, survey, rst)
	if err != nil {
		return nil, err
	}
	if err := db.replayLog(scan.Records, endLSN, st, rst); err != nil {
		return nil, err
	}
	if err := db.space.VerifyIntegrity(); err != nil {
		return nil, fmt.Errorf("noftl: recovery verification: %w", err)
	}
	db.recovering = false
	db.recovery = rst
	if _, err := db.Checkpoint(db.clock.Now()); err != nil {
		return nil, err
	}
	// The old log stayed mapped, out of the garbage collector's reach, until
	// the fresh checkpoint made it redundant.
	for _, lpn := range st.oldLog {
		_ = space.TrimPage(lpn) // cannot fail: Adopt mapped it
	}
	return db, nil
}

// ckptObject is a table or index as a checkpoint describes it: the catalog
// entry of its mark and the pages of the descriptor that follows.
type ckptObject struct {
	table *catalog.Table // exactly one of the two
	index *catalog.Index
	pageDesc
	pages []core.LPN
}

// restored is what a checkpoint's marks brought back: the tables and indexes
// as described and, once attached, by object id; the adopted pages that have a
// discarded newer version; and the pages of the old log.
type restored struct {
	head          ckptBegin
	objects       []ckptObject
	tables        map[uint32]*Table
	indexes       map[uint32]*Index
	stale, oldLog []core.LPN
}

// applyMark applies one RecCheckpoint of the chosen checkpoint.  The begin
// mark seeds what has no mark of its own; region and tablespace marks go through
// the same routines as the DDL that created them, while no page is mapped yet
// and every die still counts as empty; tables and indexes are filed with their
// page descriptors until all marks have been read.
func (db *DB) applyMark(p []byte, st *restored) error {
	kind, body, err := wal.DecodeCheckpointMark(p)
	if err != nil {
		return err
	}
	switch kind {
	case wal.CkptBegin:
		if err = json.Unmarshal(body, &st.head); err != nil {
			return err
		}
		if st.head.Light {
			// The log below the mark was cut without capturing the state, so
			// the pre-checkpoint database cannot be rebuilt.  Refusing is the
			// only honest answer.
			return errors.New("last checkpoint carries no state (light checkpoints give up crash recovery)")
		}
		db.txns.SeedNextID(st.head.NextTxnID)
	case markRegion:
		var spec RegionSpec
		if err = json.Unmarshal(body, &spec); err == nil {
			err = db.CreateRegion(spec)
		}
	case markTablespace:
		var ts catalog.Tablespace
		if err = json.Unmarshal(body, &ts); err == nil {
			err = db.CreateTablespace(ts.Name, ts.Region, ts.ExtentPages)
		}
	case markTable:
		st.objects = append(st.objects, ckptObject{table: new(catalog.Table)})
		err = json.Unmarshal(body, st.objects[len(st.objects)-1].table)
	case markIndex:
		st.objects = append(st.objects, ckptObject{index: new(catalog.Index)})
		err = json.Unmarshal(body, st.objects[len(st.objects)-1].index)
	case markPages:
		if len(st.objects) == 0 {
			return errors.New("page descriptor before any table or index")
		}
		o := &st.objects[len(st.objects)-1]
		err = json.Unmarshal(body, &o.pageDesc)
		for i := 0; err == nil && i+1 < len(o.Runs); i += 2 {
			for n := uint64(0); n < o.Runs[i+1]; n++ {
				o.pages = append(o.pages, core.LPN(o.Runs[i]+n))
			}
		}
	case wal.CkptEnd:
	default:
		err = fmt.Errorf("unknown mark kind %d", kind)
	}
	return err
}

// restoreCheckpoint applies the marks of the chosen checkpoint
// (beginLSN..endLSN, both zero when none survived), registers every table and
// index through the same routine as the DDL that created it, except that the
// object is attached to the pages its descriptor lists instead of starting
// empty, and adopts the checkpoint's image: each listed page is mapped to its
// newest version at or below the begin mark's write sequence.  Nothing is
// written.
func (db *DB) restoreCheckpoint(recs []wal.Record, beginLSN, endLSN uint64, sv *core.Survey, rst *RecoveryStats) (*restored, error) {
	st := &restored{tables: make(map[uint32]*Table), indexes: make(map[uint32]*Index)}
	for _, r := range recs {
		if r.LSN < beginLSN || r.LSN > endLSN {
			continue
		}
		rst.CheckpointBytes += int64(wal.RecordSize(r))
		err := fmt.Errorf("%s record inside the checkpoint", r.Type)
		if r.Type == wal.RecCheckpoint {
			err = db.applyMark(r.Payload, st)
		}
		if err != nil {
			return nil, fmt.Errorf("noftl: recovery: checkpoint mark at lsn %d: %w", r.LSN, tag(ErrCorruptLog, err))
		}
	}
	var pages []core.LPN
	var err error
	for i := range st.objects {
		o := &st.objects[i]
		if o.table != nil {
			st.tables[o.table.ObjectID], err = db.createTable(*o.table, o)
		} else {
			st.indexes[o.index.ObjectID], err = db.createIndex(*o.index, o)
		}
		if err != nil {
			return nil, err
		}
		pages = append(pages, o.pages...)
	}
	if st.oldLog, st.stale, err = db.space.Adopt(sv, st.head.SnapshotSeq, pages); err != nil {
		return nil, tag(ErrCorruptLog, err)
	}
	rst.AdoptedPages, rst.ReprogrammedPages = len(pages), len(st.stale)
	rst.DiscardedVersions = sv.NewerThan(st.head.SnapshotSeq)
	return st, nil
}

// replayLog is the one restore path for rows.  The base is the checkpointed
// state, exactly — once the adopted pages that have a discarded newer version
// are written again (core.Manager.Rewrite) — so of the records after the end
// mark those of committed transactions are redone, in LSN order, through the
// normal heap/btree path, and none needs to ask whether the page already holds
// its effect.  Losers, and the marks of a later checkpoint that never reached
// its end mark, are skipped; their effects are not in the base, so no undo is
// needed.
//
// Checkpointed rows are where they were: a RID of the crashed instance is
// theirs still.  Rows inserted in the window get the RID the redo assigns, and
// ridMap translates the old one for the records that follow.
func (db *DB) replayLog(recs []wal.Record, endLSN uint64, st *restored, rst *RecoveryStats) error {
	now, err := db.space.Rewrite(db.clock.Now(), st.stale)
	if err != nil {
		return err
	}
	// Every transaction of the window; true once its commit record is seen.
	committed := make(map[uint64]bool)
	var maxTxn uint64
	for _, r := range recs {
		if r.LSN > endLSN && r.Type != wal.RecCheckpoint {
			committed[r.TxnID] = committed[r.TxnID] || r.Type == wal.RecCommit
			maxTxn = max(maxTxn, r.TxnID)
		}
	}
	db.txns.SeedNextID(maxTxn)
	for _, won := range committed {
		if won {
			rst.CommittedTxns++
		} else {
			rst.LoserTxns++
		}
	}

	ridMap := make(map[RID]RID)
	current := func(rid RID) RID {
		if moved, ok := ridMap[rid]; ok {
			return moved
		}
		return rid
	}
	for _, r := range recs {
		if r.LSN <= endLSN {
			continue
		}
		rst.ReplayedRecords++
		rst.ReplayedBytes += int64(wal.RecordSize(r))
		if r.Type == wal.RecCheckpoint || !committed[r.TxnID] {
			continue
		}
		t, idx := st.tables[r.ObjectID], st.indexes[r.ObjectID]
		err = nil
		switch r.Type {
		case wal.RecInsert, wal.RecUpdate, wal.RecDelete:
			rid, row, derr := wal.DecodeRowPayload(r.Payload)
			switch {
			case derr != nil:
				return tag(ErrCorruptLog, derr)
			case t == nil:
				err = storage.ErrNotFound
			case r.Type == wal.RecInsert:
				var placed RID
				if placed, now, err = t.heap.Insert(now, row); err == nil {
					ridMap[rid] = placed
				}
			case r.Type == wal.RecUpdate:
				now, err = t.heap.Update(now, current(rid), row)
			default:
				now, err = t.heap.Delete(now, current(rid))
				delete(ridMap, rid)
			}
		case wal.RecIndexInsert:
			key, rid, derr := wal.DecodeIndexInsert(r.Payload)
			switch {
			case derr != nil:
				return tag(ErrCorruptLog, derr)
			case idx == nil:
				err = btree.ErrNotFound
			default:
				now, err = idx.tree.Insert(now, key, current(rid).Encode())
			}
		case wal.RecIndexDelete:
			if err = btree.ErrNotFound; idx != nil {
				now, err = idx.tree.Delete(now, r.Payload)
			}
		}
		// A record of an object dropped again before the crash cannot be
		// applied and is not missed.
		if errors.Is(err, storage.ErrNotFound) || errors.Is(err, btree.ErrNotFound) {
			rst.SkippedRecords++
		} else if err != nil {
			return err
		}
	}
	db.clock.Observe(now)
	return nil
}
