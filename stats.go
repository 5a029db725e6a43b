package noftl

import (
	"fmt"
	"strings"
	"time"

	"noftl/internal/buffer"
	"noftl/internal/core"
	"noftl/internal/flash"
	"noftl/internal/metrics"
	"noftl/internal/sim"
)

// Stats is an immutable snapshot of the whole stack: transactions, buffer
// pool, I/O scheduler, NoFTL space manager (with per-region GC counters),
// flash device, WAL and per-object I/O counters.  All counters are
// cumulative since the last ResetStatistics call.  Every count it shares with
// a noftl_* family of MetricsText is read from the same field of the layer
// that counts it, so the two views cannot disagree.
type Stats struct {
	// Simulated is the simulated wall-clock time covered by the counters.
	Simulated time.Duration
	// Transactions
	TxnStarted   int64
	TxnCommitted int64
	TxnAborted   int64
	// Txn carries the lock manager's contention counters (waits, timeouts,
	// held/waiting locks).
	Txn TxnStats
	// Buffer pool
	Buffer buffer.Stats
	// Scheduler covers the I/O scheduler between the space
	// manager and the device.
	Scheduler SchedulerStats
	// NoFTL space manager (per region + totals)
	Space SpaceStats
	// Flash device
	Device flash.Stats
	// WAL covers the write-ahead log (zero value when WAL is disabled).
	WAL WALStats
	// Objects holds the per-object device-side counters, the demand a
	// placement is planned from, by descending die time (see DB.ObjectStats).
	Objects []ObjectCounters
	// Trace covers the event tracer (zero value when tracing is off).
	Trace TraceStats
	// ReadLatency and WriteLatency summarise the host I/O latencies of every
	// region as one histogram holding all their observations: the
	// noftl_host_read/write_latency_seconds samples merged.
	ReadLatency  metrics.Snapshot
	WriteLatency metrics.Snapshot
}

// ObjectCounters re-exports the per-object device-side record.
type ObjectCounters = core.ObjectCounters

// SchedulerStats is a snapshot of the I/O scheduler's counters.
type SchedulerStats struct {
	// Batches counts scheduler submissions (one Submit dispatch, covering
	// one or more requests).
	Batches int64
	// Requests counts the flash commands the device carried out:
	// HostReads + HostWrites + GC.
	Requests int64
	// MaxBatch is the largest batch dispatched so far.
	MaxBatch int64
	// HostReads, HostWrites and GC count commands per class.  They are the
	// device's counts: Device.Reads, Device.Programs and Device.Copybacks +
	// Device.Erases.
	HostReads  int64
	HostWrites int64
	GC         int64
	// GCSteps and GCStalls count bounded background GC steps and foreground
	// (blocking) collections: they are Space.BGGCSteps and Space.GCStalls,
	// which the space manager counts per region.
	GCSteps  int64
	GCStalls int64
}

// TraceStats is a snapshot of the event tracer's counters (all zero when
// tracing is off).
type TraceStats struct {
	// Recorded is the total number of events ever recorded.
	Recorded int64
	// Dropped is the number of events overwritten after the ring wrapped.
	Dropped int64
	// Retained is the number of events currently held in the ring buffer.
	Retained int64
}

// TxnStats is a snapshot of the lock manager's contention counters.
type TxnStats struct {
	// LockWaits counts lock acquisitions that had to block; LockTimeouts
	// counts waits that failed: at once on a deadlock, or past their
	// virtual-time budget (ErrConflict).
	LockWaits    int64
	LockTimeouts int64
	// LocksHeld is the number of keys locked at snapshot time; LockWaiting
	// is the number of transactions blocked on a key at snapshot time.
	LocksHeld   int64
	LockWaiting int64
}

// WALStats is a snapshot of the write-ahead log's counters.
type WALStats struct {
	// Appended is the number of records appended.
	Appended int64
	// Flushes is the number of flushes that wrote pages.
	Flushes int64
	// Pages is the number of log pages allocated.
	Pages int64
	// FlushedLSN is the highest durable log sequence number.
	FlushedLSN uint64
	// GroupCommits is always 0: a log force runs within one operation, so no
	// two committers share one.
	GroupCommits int64
	// BytesAppended, BytesTrimmed and BytesLive reconcile the log's byte
	// ledger: Appended = Trimmed + Live always holds, across checkpoints and
	// truncations.  BytesLive bounds what a crash right now would replay.
	BytesAppended int64
	BytesTrimmed  int64
	BytesLive     int64
	// PagesTrimmed counts log pages dropped by checkpoint truncation.
	PagesTrimmed int64
	// Checkpoint covers the checkpoint subsystem.
	Checkpoint CheckpointStats
}

// CheckpointStats is a snapshot of the checkpoint subsystem's counters
// (nested in Stats().WAL).
type CheckpointStats struct {
	// Count is the number of checkpoints taken.
	Count int64
	// LastLSN is the LSN of the last checkpoint's end mark; recovery filters
	// the records after it by commit.
	LastLSN uint64
	// LastBytes is the encoded size of the last checkpoint's records.
	LastBytes int64
	// LastPages is the number of dirty pages the last checkpoint flushed.
	LastPages int64
	// RetainedPages is the number of superseded page versions kept on flash
	// because the last checkpoint's image consists of them (the sum of
	// Stats().Space.Regions[i].RetainedPages); the next checkpoint releases
	// them.
	RetainedPages int64
	// LastAt is the virtual time of the last checkpoint.
	LastAt sim.Time
}

// TPS returns committed transactions per simulated second.
func (s Stats) TPS() float64 {
	secs := s.Simulated.Seconds()
	if secs <= 0 {
		return 0
	}
	return float64(s.TxnCommitted) / secs
}

// WriteAmplification returns the device write-amplification factor.
func (s Stats) WriteAmplification() float64 { return s.Space.WriteAmplification() }

// String renders a compact multi-line report.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "simulated time: %v\n", s.Simulated)
	fmt.Fprintf(&b, "transactions:   started=%d committed=%d aborted=%d (%.2f TPS)\n",
		s.TxnStarted, s.TxnCommitted, s.TxnAborted, s.TPS())
	fmt.Fprintf(&b, "buffer pool:    hit ratio=%.3f misses=%d writebacks=%d\n",
		s.Buffer.HitRatio(), s.Buffer.Misses, s.Buffer.Writebacks)
	fmt.Fprintf(&b, "host I/O:       reads=%d (mean %v) writes=%d (mean %v)\n",
		s.ReadLatency.Count, s.ReadLatency.Mean, s.WriteLatency.Count, s.WriteLatency.Mean)
	fmt.Fprintf(&b, "scheduler:      submissions=%d requests=%d max batch=%d\n",
		s.Scheduler.Batches, s.Scheduler.Requests, s.Scheduler.MaxBatch)
	fmt.Fprintf(&b, "flash GC:       copybacks=%d erases=%d WA=%.2f\n",
		s.Space.GCCopybacks, s.Space.GCErases, s.WriteAmplification())
	for _, r := range s.Space.Regions {
		fmt.Fprintf(&b, "  %s\n", r.String())
	}
	return b.String()
}

// Stats returns a snapshot of every layer's counters.
func (db *DB) Stats() Stats {
	db.baton.Lock()
	defer db.baton.Unlock()
	space := db.space.Stats()
	read, write := db.space.HostLatency()
	lockStats := db.txns.LockManager().Stats()
	batches, maxBatch := db.space.Scheduler().Batches()
	dev := db.dev.Stats()
	gc := dev.Copybacks + dev.Erases
	st := Stats{
		Simulated:    time.Duration(db.clock.Now()),
		TxnStarted:   db.txns.Started(),
		TxnCommitted: db.txns.Committed(),
		TxnAborted:   db.txns.Aborted(),
		Txn: TxnStats{
			LockWaits:    lockStats.Waits,
			LockTimeouts: lockStats.Timeouts,
			LocksHeld:    lockStats.Held,
			LockWaiting:  lockStats.Waiting,
		},
		Buffer: db.pool.Stats(),
		Scheduler: SchedulerStats{
			Batches: batches, Requests: dev.Reads + dev.Programs + gc, MaxBatch: maxBatch,
			HostReads: dev.Reads, HostWrites: dev.Programs, GC: gc,
			GCSteps: space.BGGCSteps, GCStalls: space.GCStalls,
		},
		Space:        space,
		Device:       dev,
		Objects:      db.space.ObjectStats(),
		ReadLatency:  read,
		WriteLatency: write,
		WAL: WALStats{
			Appended:      db.log.Appended(),
			Flushes:       db.log.Flushes(),
			Pages:         int64(db.log.PageCount()),
			FlushedLSN:    db.log.FlushedLSN(),
			BytesAppended: db.log.BytesAppended(),
			BytesTrimmed:  db.log.BytesTrimmed(),
			BytesLive:     db.log.BytesLive(),
			PagesTrimmed:  db.log.PagesTrimmed(),
			Checkpoint:    db.checkpointStats(space.RetainedPages),
		},
	}
	if db.tracer != nil {
		st.Trace = TraceStats{
			Recorded: db.tracer.Recorded(),
			Dropped:  db.tracer.Dropped(),
			Retained: int64(db.tracer.Len()),
		}
	}
	return st
}

// checkpointStats snapshots the checkpoint counters.
func (db *DB) checkpointStats(retained int64) CheckpointStats {
	return CheckpointStats{
		Count:         db.ckptCount,
		LastLSN:       db.ckptLastLSN,
		LastBytes:     db.ckptBytes,
		LastPages:     db.ckptPages,
		RetainedPages: retained,
		LastAt:        db.ckptTime,
	}
}
