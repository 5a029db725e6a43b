// Package obs is the shared event/trace layer of the reproduction: a
// low-overhead recorder of typed events emitted by the I/O scheduler, the
// space manager (GC, wear leveling, host I/O), the buffer pool and the WAL.
//
// The events are dumped as JSONL and summarized by the noftl-trace CLI.  The
// layers count in fields of their own, and the trace folds into Stats():
// Summarize counts the events after the last reset under Stats()'s names.
//
// Overhead discipline: every hook site is guarded by Tracer.Enabled, which is
// nil-safe — a disabled tracer is simply a nil pointer, so the disabled path
// is one pointer compare and no allocations (events are fixed-size value
// structs that never escape when the guard is false).  The enabled path is one
// ring-buffer store per event.  A Tracer is not safe for concurrent use.
package obs

import "noftl/internal/sim"

// Class identifies the kind of event; the Op field refines the class (e.g.
// which flash command).
type Class uint8

// Event classes.
const (
	// ClassFlash is one flash command dispatched by the I/O scheduler
	// (submit and completion folded into a single event: Start is the
	// submission time, End the virtual completion time).
	ClassFlash Class = iota
	// ClassHostWrite is one logical host page write through the space
	// manager, including any foreground GC it had to wait for.
	ClassHostWrite
	// ClassHostRead is one logical host page read through the space manager.
	ClassHostRead
	// ClassGCStep is one bounded background GC step or one foreground
	// collection iteration (Op distinguishes them).
	ClassGCStep
	// ClassGCVictim is a victim-block selection (A = valid pages on pick).
	ClassGCVictim
	// ClassGCErase is a successful victim erase (A = erase count after).
	ClassGCErase
	// ClassWear is a static wear-leveling relocation of a cold block.
	ClassWear
	// ClassBufMiss is a buffer-pool demand miss (A = LPN).
	ClassBufMiss
	// ClassBufEvict is a frame eviction (A = LPN, B = 1 when dirty).
	ClassBufEvict
	// ClassBufWriteBack is a dirty-page write-back (A = LPN or page count).
	ClassBufWriteBack
	// ClassWALAppend is a WAL record append (A = LSN, B = record bytes).
	ClassWALAppend
	// ClassWALSync is a WAL flush to flash (A = records made durable).
	ClassWALSync
	// ClassReset marks DB.ResetStatistics: the counts of Stats() cover the
	// events after the last reset.
	ClassReset
	// NumClasses is the number of event classes (not itself a class).
	NumClasses
)

// classNames is the canonical spelling of each class, used by the JSONL form
// and the CLI filters.
var classNames = [NumClasses]string{
	"flash", "host_write", "host_read",
	"gc_step", "gc_victim", "gc_erase", "wear",
	"buf_miss", "buf_evict", "buf_writeback",
	"wal_append", "wal_sync", "reset",
}

// String returns the canonical class name.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return "unknown"
}

// ParseClass resolves a class name (as printed by Class.String) back to the
// class; ok is false for an unknown name.
func ParseClass(s string) (Class, bool) {
	for i, n := range classNames {
		if n == s {
			return Class(i), true
		}
	}
	return 0, false
}

// GC step kinds carried in Event.Op for ClassGCStep.
const (
	// GCStepBackground is a bounded step in the watermark band.
	GCStepBackground uint8 = iota
	// GCStepForeground is a blocking low-watermark collection iteration.
	GCStepForeground
)

// Flash commands carried in Event.Op for ClassFlash: the numbers of
// iosched.Op, which trace files carry (1 was a metadata-only read).
const FlashRead, FlashProgram, FlashErase, FlashCopyback uint8 = 0, 2, 3, 4

// Write-back shapes carried in Event.Op for ClassBufWriteBack.
const (
	// BufWriteBackSingle is a one-page write-back (A = LPN).
	BufWriteBackSingle uint8 = iota
	// BufWriteBackGroup is a batched (die-striped) write-back (A = pages).
	BufWriteBackGroup
)

// Event is one trace record.  It is a fixed-size value type: recording an
// event never allocates, and a full ring buffer simply overwrites the oldest
// events.  Fields that do not apply to a class are left at -1 (locations) or
// zero (aux values).
type Event struct {
	// Seq is the global record sequence number (monotonic per tracer).
	Seq uint64
	// Class is the event kind; Op refines it (flash op, GC step kind).
	Class Class
	Op    uint8
	// Prio is the iosched priority class of flash/host events.
	Prio uint8
	// Die, Block and Page locate the event on the device (-1 = not bound to
	// that level).
	Die   int32
	Block int32
	Page  int32
	// Region is the owning region id (-1 when unknown at the hook site).
	Region int32
	// Start and End bound the event in virtual time; instantaneous events
	// carry Start == End.
	Start sim.Time
	End   sim.Time
	// A and B are class-specific auxiliary values (LPN, LSN, page counts,
	// valid counts — see the class docs).
	A int64
	B int64
}

// Latency returns the event's virtual-time span.
func (e Event) Latency() sim.Duration { return e.End.Sub(e.Start) }

// Tracer records events into a fixed-capacity ring buffer.  A nil *Tracer is
// a valid, permanently disabled tracer: every method is nil-safe, and the
// Enabled guard compiles to a pointer compare — the "tracing off" fast path.
type Tracer struct {
	buf  []Event
	next uint64 // total records ever stored (ring position = next % len)
}

// DefaultCapacity is the ring size used when a non-positive capacity is
// requested (64k events ≈ 6 MiB).
const DefaultCapacity = 1 << 16

// NewTracer returns a tracer with the given ring capacity (DefaultCapacity
// when cap <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{buf: make([]Event, 0, capacity)}
}

// Enabled reports whether events are recorded.  It is the hook-site guard
// and is nil-safe: a nil tracer is always disabled.
func (t *Tracer) Enabled() bool { return t != nil }

// Record stores one event.  The tracer assigns Seq; everything else
// is the caller's.  Nil-safe (no-op) so hook sites may skip the Enabled guard
// when they already built the event.
func (t *Tracer) Record(e Event) {
	if t == nil {
		return
	}
	e.Seq = t.next
	t.next++
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, e)
	} else {
		t.buf[e.Seq%uint64(cap(t.buf))] = e
	}
}

// Len returns the number of events currently retained.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.buf)
}

// Recorded returns the total number of events ever recorded (including those
// since overwritten by the ring).
func (t *Tracer) Recorded() int64 {
	if t == nil {
		return 0
	}
	return int64(t.next)
}

// Dropped returns the number of events overwritten after the ring wrapped.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return int64(t.next) - int64(len(t.buf))
}

// Events returns a copy of the retained events, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, len(t.buf))
	if len(t.buf) < cap(t.buf) {
		copy(out, t.buf)
		return out
	}
	// The ring has wrapped: oldest record sits at next % cap.
	head := int(t.next % uint64(cap(t.buf)))
	n := copy(out, t.buf[head:])
	copy(out[n:], t.buf[:head])
	return out
}
