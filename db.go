package noftl

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"

	"noftl/internal/btree"
	"noftl/internal/buffer"
	"noftl/internal/catalog"
	"noftl/internal/core"
	"noftl/internal/ddl"
	"noftl/internal/flash"
	"noftl/internal/obs"
	"noftl/internal/sim"
	"noftl/internal/storage"
	"noftl/internal/txn"
	"noftl/internal/wal"
)

// DB is a database instance running on simulated native flash under NoFTL
// space management.
//
// Concurrency has one rule: the database runs one operation at a time.  Every
// public operation holds the database's baton, one mutex, from its start to
// its end, and the layers below take no lock of their own.  The API is safe
// for concurrent use: calls from many goroutines serialise per operation.
// Three refinements:
//
//   - A scan (Rows, Range, Prefix) and its loop body are one operation.  An
//     operation of the scanning transaction called from the body re-enters;
//     anything else called from the body (another transaction, DDL, Stats,
//     RowCount) waits for the scan and so deadlocks.  In the body a Tx.Lock
//     that would have to wait, and a write to the table or index being
//     scanned, fail with ErrConflict at once.
//   - A Tx.Lock that must wait parks: it releases the baton until the lock
//     is granted or the wait fails, so the holder can run to its release.
//   - A checkpoint parks, like a lock waiter, until no transaction is open,
//     and Begin waits while one does, so a checkpoint captures a
//     transaction-consistent snapshot.
//
// Plain accessors of a Tx or TimeCursor, which their goroutine owns, take no
// baton.
type DB struct {
	cfg    Config
	dev    *flash.Device
	space  *core.Manager
	pool   *buffer.Pool
	log    *wal.Log
	txns   *txn.Manager
	clock  *sim.Clock
	tracer *obs.Tracer // nil when tracing is off

	// baton is held by the operation that runs (see DB); quiesce, whose
	// Locker it is, wakes the checkpoints waiting for open to reach 0 and the
	// Begin calls waiting for them.
	baton   sync.Mutex
	quiesce sync.Cond

	// The schema is kept once.  A table or index handle carries its own
	// catalog entry, and the regions are the space manager's.  Every schema
	// change goes through ddl.
	tablespaces map[string]*storage.Tablespace
	tables      map[string]*Table
	indexes     map[string]*Index
	nextObject  uint32 // next fresh object id (the WAL takes 1)
	closed      bool

	// Checkpointing.  open counts the transactions from Begin until they
	// leave Active; a checkpoint waits for it to reach 0, and while any
	// waits (ckptWaiting) Begin does.  ckptRunning lets one committer take a
	// triggered checkpoint while the others skip it.  recovering suppresses
	// checkpoint triggers while recovery rebuilds the database through the
	// normal DDL/heap/btree paths.
	open        int
	ckptWaiting int
	ckptRunning bool
	ckptSeq     uint64          // checkpoint sequence number (TxnID of its marks)
	ckpt        CheckpointStats // Stats fills in RetainedPages
	ckptWALMark int64           // BytesAppended at the last checkpoint (rebased by ResetStatistics)
	recovering  bool
	recovery    *RecoveryStats // non-nil after Reopen
	txs         []Tx           // the rest of the chunk of 64 Tx values Begin cuts from, never reused
	slab        storage.Slab   // the keys and rows every transaction's reads hand out
}

// openWith wires the database layers over a device and its space manager.
// The public entry points are Open and OpenConfig (options.go), which pass a
// fresh manager; recovery passes one that already adopted the crashed
// device's physical state.
func openWith(cfg Config, dev *flash.Device, space *core.Manager) *DB {
	db := &DB{
		cfg:         cfg,
		dev:         dev,
		space:       space,
		clock:       sim.NewClock(),
		tablespaces: make(map[string]*storage.Tablespace),
		tables:      make(map[string]*Table),
		indexes:     make(map[string]*Index),
		nextObject:  1,
	}
	db.quiesce.L = &db.baton
	// A device survives Crash and Reopen: the counts and busy time of the
	// crashed instance, and the reads of the recovery scan, are not the new
	// database's.  Its die and channel timelines go on, or recovery's virtual
	// times would move.
	// The space manager is new in both callers.
	dev.ResetCounts()
	// The tracer only exists when the configuration asked for tracing.
	if cfg.TraceBufferEvents != 0 {
		db.tracer = obs.NewTracer(cfg.TraceBufferEvents)
	}
	db.space.AttachObs(db.tracer)
	db.pool = buffer.New(db.space, cfg.BufferPoolPages, dev.Geometry().PageSize, nil)
	db.pool.AttachObs(db.tracer)

	// The default tablespace lives in the default region; the WAL is placed
	// there.
	defTS := storage.NewTablespace("SYSTEM", core.DefaultRegionID, 0, db.space)
	db.tablespaces["SYSTEM"] = defTS

	walObj := db.nextObject
	db.nextObject++
	db.log = wal.New(db.space, defTS.Hint(walObj, flash.FlagLog), dev.Geometry().PageSize)
	db.space.NameObject(walObj, "WAL", "log", func() int64 { return db.log.Stats().Pages })
	db.log.AttachObs(db.tracer)
	lm := txn.NewLockManager(cfg.LockTimeout)
	lm.SetBaton(&db.baton)
	db.txns = txn.NewManager(lm, db.log, db.clock)
	return db
}

// Close flushes all dirty pages and the log and marks the database closed.
func (db *DB) Close() error {
	db.baton.Lock()
	defer db.baton.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	if _, err := db.pool.FlushAll(db.clock.Now()); err != nil {
		return err
	}
	_, err := db.log.Flush(db.clock.Now())
	return err
}

// Geometry returns the flash device's geometry (channels, dies, blocks,
// pages).  It is the read-only replacement for the former Device() escape
// hatch; live counters are in Stats().
func (db *DB) Geometry() DeviceGeometry { return db.dev.Geometry() }

// SimulatedTime returns the highest simulated time observed so far.
func (db *DB) SimulatedTime() sim.Time { return db.clock.Now() }

// checkOpen returns ErrClosed once Close has been called.  Caller holds the
// baton.
func (db *DB) checkOpen() error {
	if db.closed {
		return ErrClosed
	}
	return nil
}

// Schema is an immutable snapshot of the database schema: every region,
// tablespace, table and index, each sorted by name.
type Schema struct {
	Regions     []RegionInfo
	Tablespaces []TablespaceInfo
	Tables      []TableInfo
	Indexes     []IndexInfo
}

// Catalog entry types re-exported for Schema consumers.
type (
	// RegionInfo is the catalog entry of a NoFTL region.
	RegionInfo = catalog.Region
	// TablespaceInfo is the catalog entry of a tablespace.
	TablespaceInfo = catalog.Tablespace
	// TableInfo is the catalog entry of a table.
	TableInfo = catalog.Table
	// IndexInfo is the catalog entry of an index.
	IndexInfo = catalog.Index
	// Column describes one table column.
	Column = catalog.Column
)

// Schema returns a snapshot of the full schema: a view of the live state — the
// space manager's regions, the tablespaces, the entries the table and index
// handles carry.
func (db *DB) Schema() Schema {
	db.baton.Lock()
	defer db.baton.Unlock()
	var s Schema
	for _, spec := range db.space.RegionSpecs() {
		r, _ := db.space.Region(spec.Name)
		s.Regions = append(s.Regions, RegionInfo{Name: spec.Name, ID: r.ID(), MaxChips: spec.MaxChips,
			MaxChannels: spec.MaxChannels, MaxSizeBytes: spec.MaxSizeBytes, GC: *spec.GC})
	}
	for _, ts := range byName(db.tablespaces) {
		s.Tablespaces = append(s.Tablespaces, db.tablespaceInfo(ts))
	}
	for _, t := range byName(db.tables) {
		s.Tables = append(s.Tables, t.meta)
	}
	for _, idx := range byName(db.indexes) {
		s.Indexes = append(s.Indexes, idx.meta)
	}
	return s
}

// byName returns the values of one of the schema maps in the order of their
// names.
func byName[T any](m map[string]T) []T {
	out := make([]T, 0, len(m))
	for _, name := range slices.Sorted(maps.Keys(m)) {
		out = append(out, m[name])
	}
	return out
}

// tablespaceInfo is the catalog entry of a tablespace.  The region is there:
// one that tablespaces reference cannot be dropped.
func (db *DB) tablespaceInfo(ts *storage.Tablespace) TablespaceInfo {
	r, _ := db.space.RegionByID(ts.Region())
	return TablespaceInfo{Name: ts.Name(), Region: r.Name(), ExtentPages: ts.ExtentPages()}
}

// TimeCursor is a private virtual-time cursor publishing to the database's
// global simulated clock: it starts at time zero and every advance is
// published back, so the global clock tracks the furthest actor.
// Closed-loop drivers give each worker its own cursor.
type TimeCursor struct{ c *sim.Cursor }

// TimeCursor returns a new cursor at time zero that publishes its advances
// to the database's global clock.
func (db *DB) TimeCursor() *TimeCursor {
	return &TimeCursor{c: sim.NewCursor(db.clock)}
}

// Now returns the cursor's current virtual time.
func (tc *TimeCursor) Now() sim.Time { return tc.c.Now() }

// AdvanceTo moves the cursor forward to t (no-op when t is in the past).
func (tc *TimeCursor) AdvanceTo(t sim.Time) { tc.c.AdvanceTo(t) }

// Advance moves the cursor forward by d.
func (tc *TimeCursor) Advance(d sim.Duration) { tc.c.Advance(d) }

// ObjectStats returns the device-side record of every live table and index and
// of the WAL — the commands the device executed for its pages, counted by the
// space manager in the noftl_object_io_total family, and its current size — by
// descending die time.  Commands for pages of dropped objects are reported
// under core.UnattributedObject, so the records always sum to Stats().Space.
func (db *DB) ObjectStats() []ObjectCounters {
	db.baton.Lock()
	defer db.baton.Unlock()
	return db.space.ObjectStats()
}

// ResetStatistics zeroes every I/O, GC, WAL, checkpoint and transaction
// counter and latency histogram (device, scheduler, space manager, buffer
// pool, log, lock manager, per-object) and the virtual clock without touching
// data.  Stats() and /metrics read the same counts, so both restart from
// zero; point-in-time gauges keep their values, and the trace ring keeps its
// events and counts.  Benchmarks call it at the end of the warm-up phase.
func (db *DB) ResetStatistics() {
	db.baton.Lock()
	defer db.baton.Unlock()
	db.space.ResetCounters()
	db.pool.ResetCounters()
	db.txns.ResetCounters()
	// Keep "bytes appended since the last checkpoint" across the reset.
	db.ckptWALMark -= db.log.Stats().BytesAppended
	db.log.ResetCounters()
	db.ckpt.Count = 0
	db.clock.Reset()
}

// ---- DDL ----

// Exec parses and executes one or more DDL statements.  Failures are
// reported as *DDLError carrying the offending statement's text, its byte
// offset in sql, and — when attributable — the failing clause; the
// underlying cause stays reachable through errors.Is/As.
func (db *DB) Exec(sql string) error {
	if err := db.isOpen(); err != nil {
		return err
	}
	stmts, err := ddl.ParseAll(sql)
	if err != nil {
		return syntaxDDLErr(sql, err)
	}
	for i, st := range stmts {
		end := len(sql)
		if i+1 < len(stmts) {
			end = stmts[i+1].Pos
		}
		text := strings.TrimRight(strings.TrimSpace(sql[st.Pos:end]), ";")
		clause, err := db.execStatement(st.Stmt)
		if err != nil {
			return ddlErr(text, st.Pos, clause, err)
		}
	}
	return nil
}

// execStatement executes one parsed statement, returning the failing clause
// name ("" when not attributable) alongside any error.
func (db *DB) execStatement(st ddl.Statement) (string, error) {
	switch s := st.(type) {
	case ddl.CreateRegion:
		spec := core.RegionSpec{
			Name:         s.Name,
			MaxChips:     s.MaxChips,
			MaxChannels:  s.MaxChannels,
			MaxSizeBytes: s.MaxSizeBytes,
		}
		if s.GCPolicy != "" {
			gc := db.space.Options().GC
			var err error
			if gc.Victim, err = core.ParseVictimPolicy(s.GCPolicy); err != nil {
				return "GC_POLICY", err
			}
			spec.GC = &gc
		}
		return "", db.CreateRegion(spec)
	case ddl.CreateTablespace:
		extentPages := 0 // the default extent size
		if s.ExtentSizeBytes > 0 {
			extentPages = max(int(s.ExtentSizeBytes)/db.dev.Geometry().PageSize, 1)
		}
		err := db.CreateTablespace(s.Name, s.Region, extentPages)
		if err != nil && s.Region != "" && errors.Is(err, ErrNotFound) {
			// The only not-found object a CREATE TABLESPACE can trip over is
			// its REGION clause; other failures (e.g. a duplicate name) are
			// not the clause's fault.
			return "REGION", err
		}
		return "", err
	case ddl.CreateTable:
		cols := make([]catalog.Column, len(s.Columns))
		for i, c := range s.Columns {
			cols[i] = catalog.Column{Name: c.Name, Type: c.Type}
		}
		_, err := db.CreateTable(s.Name, s.Tablespace, cols)
		if err != nil && s.Tablespace != "" && errors.Is(err, ErrNotFound) {
			return "TABLESPACE", err
		}
		return "", err
	case ddl.CreateIndex:
		_, err := db.CreateIndex(s.Name, s.Table, s.Columns, s.Unique, s.Tablespace)
		return "", err
	case ddl.DropStatement:
		return s.Kind, db.execDrop(s)
	default:
		return "", fmt.Errorf("%w: statement %T", ErrUnsupported, st)
	}
}

func (db *DB) execDrop(s ddl.DropStatement) error {
	switch s.Kind {
	case "REGION":
		return db.dropRegion(s.Name)
	case "TABLE":
		return db.DropTable(s.Name)
	case "TABLESPACE":
		return db.DropTablespace(s.Name)
	case "INDEX":
		return db.DropIndex(s.Name)
	default:
		return fmt.Errorf("%w: cannot drop %q", ErrUnsupported, s.Kind)
	}
}

// ddl runs one schema change and makes it durable, as one operation.  change
// checks everything before it mutates anything or writes a page, so a refused
// statement leaves no trace.
func (db *DB) ddl(change func() error) error {
	db.baton.Lock()
	defer db.baton.Unlock()
	if err := db.checkOpen(); err != nil {
		return err
	}
	if err := change(); err != nil {
		return publicErr(err)
	}
	return db.checkpointAfterDDL()
}

// dropRegion returns the dies of a region no tablespace references to the
// default region (DROP REGION).
func (db *DB) dropRegion(name string) error {
	return db.ddl(func() error {
		if r, ok := db.space.Region(name); ok && r.ID() != core.DefaultRegionID {
			for _, ts := range db.tablespaces {
				if ts.Region() == r.ID() {
					return fmt.Errorf("%w: region %q is used by tablespace %q", ErrConflict, name, ts.Name())
				}
			}
		}
		return db.space.DropRegion(name)
	})
}

// CreateRegion creates a NoFTL region (programmatic form of CREATE REGION).
func (db *DB) CreateRegion(spec RegionSpec) error {
	return db.ddl(func() error {
		_, err := db.space.CreateRegion(spec)
		return err
	})
}

// CreateTablespace creates a tablespace bound to a region ("" or "DEFAULT"
// means the default region) with extents of extentPages pages (zero or less
// means storage.DefaultExtentPages).
func (db *DB) CreateTablespace(name, region string, extentPages int) error {
	return db.ddl(func() error {
		if region == "" {
			region = core.DefaultRegionName
		}
		r, ok := db.space.Region(region)
		if !ok {
			return fmt.Errorf("%w: region %q", ErrNotFound, region)
		}
		if _, ok := db.tablespaces[name]; ok {
			return fmt.Errorf("%w: tablespace %q already exists", ErrConflict, name)
		}
		db.tablespaces[name] = storage.NewTablespace(name, r.ID(), extentPages, db.space)
		return nil
	})
}

// tablespace returns the named tablespace ("" = SYSTEM).
func (db *DB) tablespace(name string) (*storage.Tablespace, error) {
	if name == "" {
		name = "SYSTEM"
	}
	ts, ok := db.tablespaces[name]
	if !ok {
		return nil, fmt.Errorf("%w: tablespace %q", ErrNotFound, name)
	}
	return ts, nil
}

// CreateTable creates a table in the given tablespace ("" = SYSTEM).
func (db *DB) CreateTable(name, tablespace string, columns []Column) (*Table, error) {
	return db.createTable(catalog.Table{Name: name, Tablespace: tablespace, Columns: columns}, nil)
}

// createTable registers a table: its heap file and its handle, which carries
// the catalog entry.  A zero ObjectID gets a fresh id and an empty heap;
// recovery passes the pre-crash id, above which fresh ids then continue, and
// the checkpoint's description of the heap's pages.
func (db *DB) createTable(meta catalog.Table, at *ckptObject) (*Table, error) {
	var t *Table
	err := db.ddl(func() error {
		ts, err := db.tablespace(meta.Tablespace)
		if err != nil {
			return err
		}
		meta.Tablespace = ts.Name()
		if meta.ObjectID == 0 {
			meta.ObjectID = db.nextObject
		}
		if err := db.markFits(meta); err != nil {
			return err
		}
		if _, ok := db.tables[meta.Name]; ok {
			return fmt.Errorf("%w: table %q already exists", ErrConflict, meta.Name)
		}
		heap := storage.NewHeapFile(meta.Name, meta.ObjectID, ts, db.pool)
		if at != nil {
			heap = storage.AttachHeapFile(meta.Name, meta.ObjectID, ts, db.pool, at.pages, at.Count)
		}
		db.nextObject = max(db.nextObject, meta.ObjectID+1)
		db.space.NameObject(meta.ObjectID, meta.Name, "table", heap.PageCount)
		t = &Table{db: db, heap: heap, meta: meta}
		db.tables[meta.Name] = t
		return nil
	})
	return t, err
}

// DropTable removes a table and its indexes, and trims their pages on flash so
// the garbage collector can reclaim the space.
func (db *DB) DropTable(name string) error {
	return db.ddl(func() error {
		t, ok := db.tables[name]
		if !ok {
			return fmt.Errorf("%w: table %q", ErrNotFound, name)
		}
		delete(db.tables, name)
		db.dropObject(t.meta.ObjectID, t.heap.Pages())
		for iname, idx := range db.indexes {
			if idx.meta.Table == name {
				delete(db.indexes, iname)
				db.dropObject(idx.meta.ObjectID, idx.tree.PageList())
			}
		}
		return nil
	})
}

// dropObject drops the pages of a table or index from the buffer pool and
// unmaps them in the space manager, so it can reclaim them, and retires the
// object's id.
func (db *DB) dropObject(id uint32, lpns []core.LPN) {
	for _, lpn := range lpns {
		db.pool.Drop(lpn)
		_ = db.space.TrimPage(lpn) // never-flushed pages are simply unmapped
	}
	db.space.ForgetObject(id)
}

// DropIndex removes an index and trims its pages on flash (the DROP INDEX
// path).
func (db *DB) DropIndex(name string) error {
	return db.ddl(func() error {
		idx, ok := db.indexes[name]
		if !ok {
			return fmt.Errorf("%w: index %q", ErrNotFound, name)
		}
		delete(db.indexes, name)
		db.dropObject(idx.meta.ObjectID, idx.tree.PageList())
		return nil
	})
}

// DropTablespace removes an empty tablespace (the DROP TABLESPACE path).
// Tablespaces still holding tables or indexes cannot be dropped
// (ErrConflict); the SYSTEM tablespace can never be dropped
// (ErrUnsupported).  The tablespace's trimmed pages were reclaimed when its
// objects were dropped; any partially used extent tail is unmapped space the
// garbage collector already treats as free.
func (db *DB) DropTablespace(name string) error {
	return db.ddl(func() error {
		if name == "" || name == "SYSTEM" {
			return fmt.Errorf("%w: the SYSTEM tablespace cannot be dropped", ErrUnsupported)
		}
		if _, ok := db.tablespaces[name]; !ok {
			return fmt.Errorf("%w: tablespace %q", ErrNotFound, name)
		}
		for _, t := range db.tables {
			if t.meta.Tablespace == name {
				return fmt.Errorf("%w: tablespace %q is used by table %q", ErrConflict, name, t.meta.Name)
			}
		}
		for _, idx := range db.indexes {
			if idx.meta.Tablespace == name {
				return fmt.Errorf("%w: tablespace %q is used by index %q", ErrConflict, name, idx.meta.Name)
			}
		}
		delete(db.tablespaces, name)
		return nil
	})
}

// CreateIndex creates a B+-tree index on a table in the given tablespace
// ("" = the table's tablespace).
func (db *DB) CreateIndex(name, table string, columns []string, unique bool, tablespace string) (*Index, error) {
	return db.createIndex(catalog.Index{Name: name, Table: table, Columns: columns, Unique: unique, Tablespace: tablespace}, nil)
}

// createIndex registers an index: its tree and its handle, which carries the
// catalog entry.  A zero ObjectID gets a fresh id and an empty tree, whose root
// page is allocated at once — the one DDL step that writes, so it comes after
// every check and the index is registered only once it succeeded; recovery
// passes the pre-crash id and the checkpoint's descriptor of the tree, and
// attaching to that writes nothing.
func (db *DB) createIndex(meta catalog.Index, at *ckptObject) (*Index, error) {
	var idx *Index
	err := db.ddl(func() error {
		t, ok := db.tables[meta.Table]
		if !ok {
			return fmt.Errorf("%w: table %q", ErrNotFound, meta.Table)
		}
		if meta.Tablespace == "" {
			meta.Tablespace = t.meta.Tablespace
		}
		ts, err := db.tablespace(meta.Tablespace)
		if err != nil {
			return err
		}
		if meta.ObjectID == 0 {
			meta.ObjectID = db.nextObject
		}
		if err := db.markFits(meta); err != nil {
			return err
		}
		if _, ok := db.indexes[meta.Name]; ok {
			return fmt.Errorf("%w: index %q already exists", ErrConflict, meta.Name)
		}
		var tree *btree.Tree
		if at != nil {
			tree = btree.Attach(meta.Name, meta.ObjectID, ts, db.pool, at.Root, at.Height, at.Count, at.pages)
		} else if tree, _, err = btree.New(db.clock.Now(), meta.Name, meta.ObjectID, ts, db.pool); err != nil {
			return err
		}
		db.nextObject = max(db.nextObject, meta.ObjectID+1)
		db.space.NameObject(meta.ObjectID, meta.Name, "index", tree.Pages)
		idx = &Index{db: db, tree: tree, meta: meta}
		db.indexes[meta.Name] = idx
		return nil
	})
	return idx, err
}

// Table returns a handle to an existing table.
func (db *DB) Table(name string) (*Table, bool) {
	db.baton.Lock()
	defer db.baton.Unlock()
	t, ok := db.tables[name]
	return t, ok
}

// Index returns a handle to an existing index.
func (db *DB) Index(name string) (*Index, bool) {
	db.baton.Lock()
	defer db.baton.Unlock()
	i, ok := db.indexes[name]
	return i, ok
}

// Begin starts a transaction whose virtual clock starts at the global
// simulated time.
func (db *DB) Begin() *Tx {
	return db.BeginAt(db.clock.Now())
}

// BeginAt starts a transaction at an explicit virtual time (used by the
// closed-loop benchmark terminals, which carry their own time cursors).  It
// waits while a checkpoint is pending; the transaction then counts as open
// until it commits or aborts, so checkpoints capture transaction-consistent
// snapshots.
func (db *DB) BeginAt(now sim.Time) *Tx {
	db.baton.Lock()
	defer db.baton.Unlock()
	for db.ckptWaiting > 0 {
		db.quiesce.Wait()
	}
	db.open++
	if len(db.txs) == 0 {
		db.txs = make([]Tx, 64)
	}
	tx := &db.txs[0]
	*tx, db.txs = Tx{db: db, inner: db.txns.Begin(now), open: true}, db.txs[1:]
	return tx
}

// Update runs fn inside a read-write transaction.  The transaction is
// committed when fn returns nil (and no iteration error is pending on the
// transaction, see Tx.Err) and aborted otherwise, also when the commit fails;
// a panic inside fn aborts before re-panicking.
func (db *DB) Update(fn func(*Tx) error) error {
	if err := db.isOpen(); err != nil {
		return err
	}
	tx := db.Begin()
	// One abort site covers fn errors, pending iterator errors, a commit the
	// log refused and panics.
	defer func() {
		if tx.open {
			tx.Abort()
		}
	}()
	if err := fn(tx); err != nil {
		return err
	}
	if err := tx.Err(); err != nil {
		return err
	}
	_, err := tx.Commit()
	return err
}

// View runs fn inside a read-only transaction.  The transaction is always
// released at the end without forcing the log; fn's error (or a pending
// iteration error) is returned.  View does not enforce read-only access —
// it is a convention: use Update when fn modifies data.
func (db *DB) View(fn func(*Tx) error) error {
	if err := db.isOpen(); err != nil {
		return err
	}
	tx := db.Begin()
	defer tx.Abort()
	if err := fn(tx); err != nil {
		return err
	}
	return tx.Err()
}

// FlushAll writes every dirty buffered page to flash and returns the
// advanced virtual time.  It takes no checkpoint and forces no log: that is
// Checkpoint.
func (db *DB) FlushAll(now sim.Time) (sim.Time, error) {
	db.baton.Lock()
	defer db.baton.Unlock()
	if err := db.checkOpen(); err != nil {
		return now, err
	}
	return db.pool.FlushAll(now)
}

// Checkpoint quiesces transactions, flushes all dirty pages, describes the
// flash image they complete (schema, the pages of every table and index) in a
// run of marks at the head of the WAL, truncates the log below them, and
// returns the advanced time.  Its cost is that of the dirty pages, whatever
// the size of the database.  Crash recovery replays from the last complete
// checkpoint, so checkpoint frequency bounds recovery work (see
// WithCheckpointEvery).  It fails with ErrConflict while a dirty page is
// pinned.
func (db *DB) Checkpoint(now sim.Time) (sim.Time, error) {
	db.baton.Lock()
	defer db.baton.Unlock()
	if err := db.awaitQuiesce(); err != nil {
		return now, err
	}
	return db.checkpoint(now)
}

// isOpen is checkOpen for a caller that does not hold the baton.
func (db *DB) isOpen() error {
	db.baton.Lock()
	defer db.baton.Unlock()
	return db.checkOpen()
}
