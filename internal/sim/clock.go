// Package sim provides virtual-time primitives used by the flash device
// model and the transaction driver.
//
// The reproduction never sleeps for real flash latencies.  Instead every
// resource (a die, a channel) carries a timeline of the virtual intervals it
// is busy and every actor (a terminal, a background flusher, the garbage
// collector) carries a virtual cursor.  Serving a request on a resource
// occupies the timeline and advances the cursor, exactly as a single-server
// queue ordered by arrival time would.  All timestamps are expressed in
// nanoseconds of simulated time (type Time).
//
// Arrival order, not submission order: the actors' cursors are not
// synchronized, so the order of their Acquire calls is not the order in which
// their requests reach the resource.  Queueing in call order lets one actor
// that was carried ahead (by a checkpoint, say) reserve the resource in the
// future and pulls every actor that touches it afterwards up to that time:
// all of them then advance in lock-step at the pace of the most delayed one.
// The timeline is bounded: a resource remembers at most its last maxSpans busy
// intervals and serves an arrival older than those where they start.
package sim

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"time"
)

// Time is a point in simulated time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration is a span of simulated time in nanoseconds.  It converts to and
// from time.Duration one-to-one.
type Duration = time.Duration

// Micros returns the time as fractional microseconds.
func (t Time) Micros() float64 { return float64(t) / 1e3 }

// Millis returns the time as fractional milliseconds.
func (t Time) Millis() float64 { return float64(t) / 1e6 }

// Seconds returns the time as fractional seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Add returns the time advanced by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between t and u (t - u).
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

func (t Time) String() string {
	return fmt.Sprintf("%.3fms", t.Millis())
}

// MaxTime returns the later of a and b.
func MaxTime(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// span is one busy interval [start, end) of a resource.
type span struct{ start, end Time }

// maxSpans bounds the busy intervals a resource remembers (4 KB); beyond it
// the older half is forgotten, so at least maxSpans/2 are always kept.
const maxSpans = 256

// Resource is a single-server queue living in virtual time that serves its
// requests in arrival order: a NAND die, a flash channel, or any other device
// component that serves one operation at a time.  The zero value is an idle
// resource; it is not safe for concurrent use.
type Resource struct {
	// spans is the timeline: the disjoint busy intervals in time order,
	// adjacent ones merged, so a saturated resource holds a single span.
	// Nothing is ever placed before floor, the end of the forgotten history.
	spans []span
	floor Time
	busy  Duration // cumulative service time
}

// Acquire serves an operation of length d for an actor whose current virtual
// time is now.  It returns the operation's start and completion times.  The
// operation starts at the earliest instant at or after now at which the
// resource is idle for all of d: an actor whose cursor lags waits for what
// occupies the resource when it arrives, not for time another actor reserved
// further ahead.  An arrival older than the remembered history is served as
// if it arrived at the start of that history.
func (r *Resource) Acquire(now Time, d Duration) (start, done Time) {
	r.busy += d

	// i is the first span that ends after now.  Arrivals in time order (a
	// single actor, or actors in step) find it at the tail in O(1) and get
	// exactly the times of a FCFS queue in submission order.
	n := len(r.spans)
	i := n
	if n > 0 && now < r.spans[n-1].end {
		i = n - 1
		if now < r.spans[i].start {
			now = MaxTime(now, r.floor)
			i = sort.Search(n, func(k int) bool { return r.spans[k].end > now })
		}
	}
	// Skip the spans whose preceding gap is too short for d.
	start = now
	for ; i < n && r.spans[i].start < start.Add(d); i++ {
		start = MaxTime(start, r.spans[i].end)
	}
	done = start.Add(d)
	if d <= 0 {
		return start, done
	}

	// Record [start, done) before span i, merged into the neighbours it touches.
	prev := i > 0 && r.spans[i-1].end == start
	next := i < n && r.spans[i].start == done
	switch {
	case prev && next:
		r.spans[i-1].end = r.spans[i].end
		r.spans = slices.Delete(r.spans, i, i+1)
	case prev:
		r.spans[i-1].end = done
	case next:
		r.spans[i].start = start
	default:
		r.spans = slices.Insert(r.spans, i, span{start, done})
		if len(r.spans) > maxSpans {
			r.floor = r.spans[maxSpans/2-1].end
			r.spans = slices.Delete(r.spans, 0, maxSpans/2)
		}
	}
	return start, done
}

// Busy returns the cumulative virtual service time charged to the resource.
func (r *Resource) Busy() Duration {
	return r.busy
}

// ResetBusy zeroes the cumulative service time and keeps the timeline: the
// operations that follow are served at the times they would be without it.
func (r *Resource) ResetBusy() { r.busy = 0 }

// Reset returns the resource to the idle state at time zero, clearing
// accumulated statistics.
func (r *Resource) Reset() {
	r.spans, r.floor, r.busy = r.spans[:0], 0, 0
}

// Clock tracks the global high-water mark of simulated time across all
// actors.  Actors advance their private cursors and publish them; the clock
// remembers the maximum, which is the simulated wall-clock duration of the
// run.  Observe is a lock-free CAS-max: a TimeCursor advances, and publishes
// here, outside any database operation.
type Clock struct {
	max atomic.Int64
}

// NewClock returns a clock at time zero.
func NewClock() *Clock { return &Clock{} }

// Observe publishes an actor's cursor; the clock keeps the maximum.
func (c *Clock) Observe(t Time) {
	for {
		cur := c.max.Load()
		if int64(t) <= cur || c.max.CompareAndSwap(cur, int64(t)) {
			return
		}
	}
}

// Now returns the highest observed simulated time.
func (c *Clock) Now() Time { return Time(c.max.Load()) }

// Reset puts the clock back to zero.
func (c *Clock) Reset() { c.max.Store(0) }

// Cursor is the private virtual-time position of a single actor (a TPC-C
// terminal, a flusher, the GC).  It is not safe for concurrent use; each
// actor owns its cursor.
type Cursor struct {
	now   Time
	clock *Clock
}

// NewCursor returns a cursor at time zero publishing to clock (which may be
// nil).
func NewCursor(clock *Clock) *Cursor { return &Cursor{clock: clock} }

// Now returns the actor's current virtual time.
func (c *Cursor) Now() Time { return c.now }

// AdvanceTo moves the cursor forward to t (never backwards) and publishes it.
func (c *Cursor) AdvanceTo(t Time) {
	if t > c.now {
		c.now = t
	}
	if c.clock != nil {
		c.clock.Observe(c.now)
	}
}

// Advance moves the cursor forward by d and publishes it.
func (c *Cursor) Advance(d Duration) {
	c.AdvanceTo(c.now.Add(d))
}

// SetTo forces the cursor to t even if it moves backwards (used when a pooled
// actor is reused for a new logical actor).
func (c *Cursor) SetTo(t Time) {
	c.now = t
	if c.clock != nil {
		c.clock.Observe(c.now)
	}
}
