// Package noftl is the public API of the reproduction of "Revisiting DBMS
// Space Management for Native Flash" (Hardock et al., EDBT 2016).
//
// It exposes a small storage engine running directly on simulated native
// flash under NoFTL space management with Regions.  Databases are opened
// with functional options over DefaultConfig:
//
//	db, _ := noftl.Open(noftl.WithBufferPoolPages(4096), noftl.WithCheckpointEvery(256<<10))
//	defer db.Close()
//	_ = db.Exec(`CREATE REGION rgHot (MAX_CHIPS=4, MAX_CHANNELS=4);
//	             CREATE TABLESPACE tsHot (REGION=rgHot, EXTENT SIZE 128K);
//	             CREATE TABLE T (t_id NUMBER(3)) TABLESPACE tsHot;`)
//
// Data access is batch-first and transactional: db.Update and db.View run a
// closure inside a transaction; Table.InsertBatch and Table.GetBatch ride
// the I/O scheduler's die-striped batch path, so a batch of pages costs
// roughly one page latency per die instead of one per page; Table.Rows,
// Index.Range and Index.Prefix return Go 1.23 range-over-func iterators.
//
//	_ = db.Update(func(tx *noftl.Tx) error {
//	    _, err := tbl.InsertBatch(tx, rows) // one scheduler submission
//	    return err
//	})
//	_ = db.View(func(tx *noftl.Tx) error {
//	    for rid, row := range tbl.Rows(tx) {
//	        _ = rid
//	        _ = row
//	    }
//	    return tx.Err()
//	})
//
// Errors are classifiable with errors.Is (ErrNotFound, ErrClosed,
// ErrUnsupported, ErrConflict, ErrRegionFull); DDL failures are *DDLError
// values carrying the offending statement, position and clause.
// Introspection is snapshot-only: Stats() captures every layer's counters
// (buffer pool, I/O scheduler, per-region space/GC, device, WAL,
// per-object), Schema() is a view of the live schema, Geometry() describes the
// device, and Admin() is the narrow facade for what no schema statement does
// (growing a region, integrity checks, trace dumps, fault injection).
//
// Every physical page carries the placement hint of its tablespace's
// region, so the DBMS — not a flash translation layer — controls physical
// data placement, garbage collection and wear leveling.  See README.md,
// "Architecture" for the system inventory and "Reproducing the paper's
// results" for the reproduced results.
package noftl

import (
	"time"

	"noftl/internal/core"
	"noftl/internal/flash"
)

// Config configures a Database instance.
type Config struct {
	// Flash configures the simulated native flash device (geometry, NAND
	// timing, endurance).
	Flash flash.Config
	// Space configures the NoFTL space manager: placement mode,
	// over-provisioning, DisableBackgroundGC and the default per-region GC
	// policy (victim selection, background step size, hot/cold separation —
	// overridable per region via CREATE/ALTER REGION).  The watermark pair,
	// the GC reserve and the wear-leveling threshold are fixed.
	Space core.Options
	// BufferPoolPages is the number of page frames in the buffer pool.  The
	// number of replacement partitions, each a CLOCK over its frames, is
	// derived from it (one per 64 frames, capped at 16; small pools keep one,
	// a plain CLOCK).  A miss
	// reads the demanded page only: a scan of a table larger than the pool
	// misses once per page.
	BufferPoolPages int
	// LockTimeout is a lock wait's budget in virtual time: a wait fails when
	// the key's releases have moved simulated time this far while the lock
	// stayed unavailable.  A deadlock does not wait for it: the wait that
	// would close one fails at once.
	LockTimeout time.Duration
	// TraceBufferEvents enables event tracing: flash commands, host I/O, GC
	// steps, wear moves, buffer-pool and WAL events are recorded into an
	// in-memory ring buffer of this many events (oldest events are
	// overwritten once it is full; a negative value means the default of
	// 65536).  Admin().TraceDump writes the retained events as JSONL, the
	// stream `noftl-trace` consumes.  Zero (the default) disables tracing
	// entirely — the hook sites then cost one nil compare each.
	TraceBufferEvents int
	// CheckpointEveryBytes, when positive, takes a checkpoint whenever that
	// many WAL bytes have been appended since the last one (checked after
	// each commit).  A checkpoint flushes the dirty pages, describes the
	// flash image they complete in a few marks at the head of the log and
	// truncates the log below them, bounding how much a crash recovery has to
	// replay.  Zero disables the byte trigger; DDL statements always
	// checkpoint (schema changes are only durable through the checkpoint's
	// schema marks), and a checkpoint is taken as well once the page versions
	// retained for the last one outgrow half of a region's over-provisioned
	// spare.  See WithCheckpointEvery.
	CheckpointEveryBytes int64
	// DisableSnapshotCheckpoints switches checkpoints to the light form:
	// flush dirty pages and truncate the whole WAL, without describing the
	// state and without retaining the page versions it consists of.  Light
	// checkpoints give up crash recovery — Reopen refuses a log whose last
	// checkpoint is a light one.  This is the classic reduced-durability
	// benchmark regime the paper-reproduction experiments are pinned to.  The
	// default (false) takes full checkpoints.
	DisableSnapshotCheckpoints bool
	// FaultPlan arms deterministic fault injection on the flash device:
	// crash at a virtual time or after an operation count, torn tail-page
	// programs, transient program failures and worn-block erase failures.
	// The zero value injects nothing.  See WithFaultPlan and Reopen.
	FaultPlan FaultPlan
}

// DefaultConfig returns a small configuration suitable for tests, examples
// and laptop-scale experiments: an 8-die device with 256 MiB of flash, a
// 2k-page buffer pool, region-aware placement.
func DefaultConfig() Config {
	return Config{
		Flash:           flash.DefaultConfig(),
		Space:           core.DefaultOptions(),
		BufferPoolPages: 2048,
		LockTimeout:     2 * time.Second,
	}
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.BufferPoolPages <= 0 {
		c.BufferPoolPages = 2048
	}
	if c.LockTimeout <= 0 {
		c.LockTimeout = 2 * time.Second
	}
	return c
}

// Placement re-exports the placement modes for callers configuring the
// space manager.
const (
	// PlacementRegions is region-aware (intelligent) data placement.
	PlacementRegions = core.PlacementRegions
	// PlacementTraditional ignores regions: uniform placement over all dies.
	PlacementTraditional = core.PlacementTraditional
)
