package noftl

import (
	"encoding/json"
	"fmt"

	"noftl/internal/core"
	"noftl/internal/sim"
	"noftl/internal/wal"
)

// A checkpoint is the flash image at a write sequence number, not a copy of
// the database.  Pages are written out of place and carry their LPN and write
// sequence out of band, so once every dirty buffer is flushed the data pages on
// flash are the durable state, and the checkpoint only has to say where it is.
// Once no transaction is open it flushes the pool (no dirty page may stay
// behind: what is not on flash is not in the checkpoint), takes the space
// manager's write sequence S (core.Manager.Snapshot) and appends one run of
// marks,
//
//	begin   sequence number (TxnID), ckptBegin body with S
//	schema  one mark per region (with the dies it is pinned to), tablespace,
//	        table and index: the catalog entry
//	pages   after each table or index mark, where its pages are (pageDesc) —
//	        over several marks when one record cannot hold the list
//	end
//
// forces the log and truncates it below the begin mark.  The cost is that of
// the dirty pages and the schema; a table ten times the size adds a few bytes
// per page run.  The force is not atomic, and the checkpoint exists once it has
// returned: after a crash inside it the log ends at the first page that did not
// reach flash, and what lies above — even a begin…end run that happens to be
// whole — is dropped (wal.ScanImages).
//
// The checkpointed state is, for every page a descriptor lists, its newest
// version with Seq <= S.  The buffer pool goes on writing pages back, with the
// changes of transactions that may never commit (steal).  Nothing is undone and
// no page carries an LSN: those writes land out of place, and the space manager
// retains the version each of them supersedes until the next checkpoint is
// durable (core/retain.go), so the image at S is on flash whatever was written
// since.  Recovery maps exactly that image, treats every newer version as
// garbage, and redoes the committed transactions behind the end mark logically
// onto a base that is the checkpointed state by construction (recovery.go).

// ckptBegin is the body of a checkpoint's begin mark.
type ckptBegin struct {
	NextTxnID uint64 // highest transaction id handed out so far
	// DefaultGC is the configuration's policy, which the default region always
	// has.  Recovery does not read it (Reopen inherits the configuration), but
	// the field stays: its bytes decide how the log pages of every checkpoint
	// fill, and dropping it moves every simulated number (small Figure 3 from
	// 951.97 / 915.63 to 978.50 / 896.40 TPS).  A change that re-baselines the
	// benchmarks may drop it.
	DefaultGC core.GCPolicy
	// SnapshotSeq is the space manager's write sequence after the flush: the
	// checkpointed version of a page is its newest at or below it.  A light
	// checkpoint has none, and its mark is byte for byte what it always was.
	SnapshotSeq uint64 `json:",omitempty"`
	// Light marks the reduced-durability form (DisableSnapshotCheckpoints):
	// the end mark follows at once and the log is cut without capturing the
	// state below it, so recovery refuses such a log.  It exists for benchmark
	// runs where checkpoint I/O must not distort the measured workload.
	Light bool
}

// Mark kinds between a checkpoint's begin and end (applyMark is their reader);
// every body is JSON.
const (
	markRegion byte = wal.CkptBody + iota
	markTablespace
	markTable
	markIndex
	markPages
)

// pageDesc is the body of a markPages mark: where the checkpoint found the
// heap of the table, or the tree of the index, marked before it — all it takes
// to attach the object to its pages without reading one.
type pageDesc struct {
	Count  int64    // live records of the heap, entries of the tree
	Root   core.LPN // tree only
	Height int      // tree only
	Runs   []uint64 // pages in allocation order, as (first LPN, run length) pairs
}

// ckptStream appends the marks of one checkpoint.  The first failure sticks
// in err and turns every later append into a no-op, so a stream that broke off
// is never closed by an end mark.
type ckptStream struct {
	log   *wal.Log
	seq   uint64
	max   int    // largest mark body a log record carries
	lsn   uint64 // LSN of the newest mark
	bytes int64  // encoded size of the marks
	err   error
}

// mark appends a RecCheckpoint of the given kind; body (nil for the end mark)
// travels as JSON.
func (s *ckptStream) mark(kind byte, body any) {
	var data []byte
	if body != nil && s.err == nil {
		data, s.err = json.Marshal(body)
	}
	if s.err != nil {
		return
	}
	payload := wal.EncodeCheckpointMark(kind, data)
	s.lsn, s.err = s.log.Append(wal.RecCheckpoint, s.seq, 0, payload)
	s.bytes += int64(wal.RecordSize(wal.Record{Payload: payload}))
}

// describe appends the descriptor of the object just marked.  A page list that
// outgrows one record continues in further marks.
func (s *ckptStream) describe(d pageDesc, pages []core.LPN) {
	// A pair is at most two 20-digit numbers and their commas; 96 bytes cover
	// the scalars.
	fit := 2 * ((s.max - 96) / 42)
	for i := 0; i < len(pages); {
		run := 1
		for i+run < len(pages) && pages[i+run] == pages[i]+core.LPN(run) {
			run++
		}
		if len(d.Runs) == fit {
			s.mark(markPages, d)
			d.Runs = d.Runs[:0]
		}
		d.Runs = append(d.Runs, uint64(pages[i]), uint64(run))
		i += run
	}
	s.mark(markPages, d)
}

// markFits rejects, before a DDL registers it, a catalog entry whose schema
// mark would not fit one log record: every later checkpoint would fail on it.
func (db *DB) markFits(entry any) error {
	body, err := json.Marshal(entry)
	if max := wal.MaxPayload(db.dev.Geometry().PageSize) - 1; err == nil && len(body) > max {
		err = tag(ErrTooLarge, fmt.Errorf("catalog entry of %d bytes exceeds the %d a log record carries", len(body), max))
	}
	return err
}

// describeState appends the schema and the descriptor of every table and
// index.  No transaction is open, so the state is transaction-consistent by
// construction.
func (db *DB) describeState(s *ckptStream) {
	// Regions carry their live die assignment, so recovery recreates each on
	// exactly the dies it owned.
	for _, spec := range db.space.RegionSpecs() {
		s.mark(markRegion, spec)
	}
	for _, ts := range byName(db.tablespaces) {
		if ts.Name() != "SYSTEM" { // implicit: openWith creates it
			s.mark(markTablespace, db.tablespaceInfo(ts))
		}
	}
	for _, t := range byName(db.tables) {
		s.mark(markTable, t.meta)
		s.describe(pageDesc{Count: t.heap.RecordCount()}, t.heap.Pages())
	}
	for _, idx := range byName(db.indexes) {
		s.mark(markIndex, idx.meta)
		s.describe(pageDesc{Count: idx.tree.Entries(), Root: idx.tree.Root(), Height: idx.tree.Height()}, idx.tree.PageList())
	}
}

// awaitQuiesce returns once no transaction is open, for a checkpoint to run,
// or with ErrClosed.  The caller holds the baton, which the wait releases:
// Begin waits meanwhile, and the open transactions run to their commit or
// abort.
func (db *DB) awaitQuiesce() error {
	if err := db.checkOpen(); err != nil {
		return err
	}
	db.ckptWaiting++
	for db.open > 0 {
		db.quiesce.Wait()
	}
	if db.ckptWaiting--; db.ckptWaiting == 0 {
		db.quiesce.Broadcast() // the Begin calls waiting for it
	}
	return db.checkOpen()
}

// checkpoint takes a checkpoint.  The caller holds the baton, no transaction
// is open and the database is open.
func (db *DB) checkpoint(now sim.Time) (sim.Time, error) {
	now, flushed, left, err := db.pool.Flush(now)
	if err != nil {
		return now, err
	}
	db.ckptSeq++
	s := &ckptStream{log: db.log, seq: db.ckptSeq, max: wal.MaxPayload(db.dev.Geometry().PageSize) - 1}
	head := ckptBegin{NextTxnID: db.txns.NextID(), DefaultGC: db.space.Options().GC, Light: db.cfg.DisableSnapshotCheckpoints}
	switch {
	case head.Light:
	case left > 0:
		// The flushed pages are the checkpoint, and a page that stayed behind
		// is not in it: someone holds a handle across the call.
		s.err = tag(ErrConflict, fmt.Errorf("noftl: checkpoint: %d dirty pages are pinned and could not be flushed", left))
	default:
		head.SnapshotSeq = db.space.Snapshot()
	}
	s.mark(wal.CkptBegin, head)
	beginLSN := s.lsn
	if !head.Light {
		db.describeState(s)
	}
	s.mark(wal.CkptEnd, nil)
	if err = s.err; err == nil {
		if now, err = db.log.Flush(now); err == nil {
			// Everything below the begin mark is now redundant, in the log and
			// on flash: recovery starts here.
			db.log.Truncate(beginLSN)
			if !head.Light {
				db.space.ReleaseRetained()
			}
		}
	}
	// Also after a failure, which can leave marks without an end in the log
	// (recovery skips them, the next checkpoint truncates them): the triggers
	// then retry once per budget, not after every commit.
	db.ckptWALMark = db.log.BytesAppended()
	if err != nil {
		return now, err
	}
	db.ckptCount++
	db.ckptLastLSN = s.lsn
	db.ckptBytes = s.bytes
	db.ckptPages = int64(flushed)
	db.ckptTime = now
	return now, nil
}

// maybeCheckpoint runs after a commit, under its baton.  A checkpoint is due
// once CheckpointEveryBytes of WAL have been appended since the last attempt
// (see WithCheckpointEvery) — or one log page's worth, when the page versions
// retained for the last checkpoint have outgrown their share of the spare
// blocks.  One committer takes it while the others skip past.
func (db *DB) maybeCheckpoint(now sim.Time) {
	if db.recovering {
		return
	}
	budget := db.cfg.CheckpointEveryBytes
	if db.space.RetentionOverBudget() {
		if page := int64(db.dev.Geometry().PageSize); budget <= 0 || page < budget {
			budget = page
		}
	}
	if budget <= 0 {
		return
	}
	if db.log.BytesAppended()-db.ckptWALMark < budget || db.ckptRunning {
		return
	}
	db.ckptRunning = true
	if db.awaitQuiesce() == nil {
		_, _ = db.checkpoint(now)
	}
	db.ckptRunning = false
}

// checkpointAfterDDL takes a synchronous checkpoint after a schema change.
// Schema changes are not logged on their own, so the checkpoint's schema
// marks are what makes them durable; any data written after a DDL therefore
// always has a covering checkpoint to recover from.  Suppressed while
// recovery itself replays DDL.  The caller holds the baton.
func (db *DB) checkpointAfterDDL() error {
	if db.recovering || db.cfg.DisableSnapshotCheckpoints {
		// Light checkpoints carry no schema marks: schema changes are not
		// recoverable there anyway, so the DDL checkpoint would only add I/O.
		return nil
	}
	if err := db.awaitQuiesce(); err != nil {
		return err
	}
	_, err := db.checkpoint(db.clock.Now())
	return err
}
