// Package iosched implements the I/O scheduler that sits between the NoFTL
// space manager and the native flash device.
//
// The device model (internal/flash) exposes synchronous commands whose
// virtual-time cost is charged against per-die and per-channel resources.
// Issuing commands one at a time from a single actor therefore serializes
// everything on the actor's own virtual cursor, even when the commands target
// different dies that could proceed in parallel.  The scheduler restores the
// device's parallelism: a batch of requests is dispatched so that requests to
// different dies all start at the caller's current virtual time and overlap,
// while requests to the same die serialize on the die's resource exactly as
// the hardware would (one operation at a time, served in arrival order — see
// sim.Resource).
//
// There is one form: Submit(now, reqs) dispatches a batch and returns one
// Completion per request (same order) plus the batch makespan.  The space
// manager's host reads and writes (ReadPages, WritePages and their
// one-element entries ReadPage, WritePage) and the GC copyback batches all
// go through it; a single command is a batch of one.
//
// The device counts the commands; the scheduler counts only its batches.
// Requests carry a priority class (host read, host write, GC/copyback), which
// labels their trace events and orders nothing: no caller mixes classes in one
// batch (host reads, host writes and GC copybacks are each submitted alone),
// and a dispatch drains each die's requests in submission order.  Once a batch
// is dispatched its device time is reserved, exactly as hardware cannot abort
// an in-flight program.  A later dispatch is served around those reservations
// — in the idle time before them when its cursor arrives earlier, behind them
// otherwise — whatever its class; it never displaces one.  Equally long
// commands of one dispatch to one die (the programs of a block) keep their
// submission order: each takes the earliest idle stretch the one before left.
// DieIdleAt stays the end of everything dispatched to a die, not its first
// idle instant: background GC aims behind all known work.
package iosched

import (
	"slices"

	"noftl/internal/flash"
	"noftl/internal/obs"
	"noftl/internal/sim"
)

// Priority is the class of a request: it labels the request's trace event.
type Priority uint8

const (
	// PrioHostRead covers host page reads: a transaction is blocked on them.
	PrioHostRead Priority = iota
	// PrioHostWrite covers foreground writes and write-back groups.
	PrioHostWrite
	// PrioGC covers garbage-collection copyback, relocation and erase work.
	PrioGC
)

// Op identifies the flash command a request performs.
type Op uint8

const (
	// OpReadPage reads a full page (data + metadata).
	OpReadPage Op = iota
	// 1 was a metadata-only read; trace files carry the numbers (obs names
	// them: obs.FlashRead and the rest), so the commands below keep theirs.
	_
	// OpProgram programs a page.
	OpProgram
	// OpErase erases a block.
	OpErase
	// OpCopyback copies a page to an erased page on the same die.
	OpCopyback
)

// Request describes one flash command to schedule.
type Request struct {
	// Op selects the command.
	Op Op
	// Addr is the target page of OpReadPage/OpProgram and the
	// source page of OpCopyback.
	Addr flash.Addr
	// Dst is the destination page of OpCopyback.
	Dst flash.Addr
	// Block is the target of OpErase.
	Block flash.BlockAddr
	// Buf optionally receives the data of OpReadPage (allocated when nil).
	Buf []byte
	// Data is the payload of OpProgram.
	Data []byte
	// Meta is the OOB metadata of OpProgram.
	Meta flash.PageMeta
	// Priority is the request's class.
	Priority Priority
	// Tag is an opaque caller value (e.g. the LPN) for the trace event.
	Tag uint64
	// NotBefore, when later than the batch's submission time, is the earliest
	// time the command may be issued: a program waits for the foreground
	// collection of its own die, not for those of the batch's other dies.
	NotBefore sim.Time
}

// die returns the die the request occupies.
func (r *Request) die() int {
	if r.Op == OpErase {
		return r.Block.Die
	}
	return r.Addr.Die
}

// Completion is the result of one request.
type Completion struct {
	// Data is the page read by OpReadPage (nil otherwise or on error).
	Data []byte
	// Meta is the metadata read by OpReadPage, or the metadata
	// inherited by the destination of OpCopyback.
	Meta flash.PageMeta
	// Done is the virtual completion time of the request (equal to the
	// time it was issued at when Err is non-nil and the device refused the
	// command without consuming time).
	Done sim.Time
	// Err is the device error, if any.
	Err error
}

// Scheduler is the I/O scheduler.  It is not safe for concurrent use: the
// device model's virtual-time resources (per-die, per-channel) do all
// contention accounting.
type Scheduler struct {
	dev       *flash.Device
	busyUntil []sim.Time // per-die completion horizon (a read's includes its channel transfer)
	order     []int      // scratch of dispatchOrder
	byDie     [][]int    // scratch of dispatchOrder: request indices per die

	counts Counts // what Counts returns

	tracer *obs.Tracer // nil when tracing is off: one nil compare per command
}

// New creates a scheduler over the device.
func New(dev *flash.Device) *Scheduler {
	return &Scheduler{
		dev:       dev,
		busyUntil: make([]sim.Time, dev.Geometry().Dies()),
	}
}

// AttachObs sends flash-command trace events to tr (nil = tracing off).
func (s *Scheduler) AttachObs(tr *obs.Tracer) { s.tracer = tr }

// Counts is what the scheduler counts since the last ResetCounters: the
// batches it dispatched, one per Submit, and the largest of them.
type Counts struct{ Batches, MaxBatch int64 }

// Counts returns the scheduler's counts.
func (s *Scheduler) Counts() Counts { return s.counts }

// ResetCounters zeroes the counts and every die's completion horizon: the
// device's die timelines restart with its counters (after warm-up).
func (s *Scheduler) ResetCounters() {
	s.counts = Counts{}
	clear(s.busyUntil)
}

// Submit dispatches a batch of requests starting at the caller's virtual time
// and returns one completion per request, in request order, together with the
// batch makespan (the latest completion time; now when the batch is empty).
// It is SubmitAppend into a fresh slice.
func (s *Scheduler) Submit(now sim.Time, reqs []Request) ([]Completion, sim.Time) {
	return s.SubmitAppend(nil, now, reqs)
}

// SubmitAppend is Submit for a caller that reuses its completion slice: it
// appends one completion per request to dst, in request order, and returns
// the extended slice with the batch makespan.
//
// Requests to different dies overlap in virtual time; requests to the same
// die are served in submission order on the die's single-server queue.
//
// Submitters contend only on the per-die/per-channel resources of the device
// model, and then only when they target the same die.  Ordering guarantees
// hold within one batch; across batches the dies arbitrate by arrival time,
// exactly as the hardware would.
func (s *Scheduler) SubmitAppend(dst []Completion, now sim.Time, reqs []Request) ([]Completion, sim.Time) {
	if len(reqs) == 0 {
		return dst, now
	}
	order := s.dispatchOrder(reqs)
	base := len(dst)
	dst = slices.Grow(dst, len(reqs))[:base+len(reqs)]
	end := now
	for k := range reqs {
		i := k
		if order != nil {
			i = order[k]
		}
		req := &reqs[i]
		at := max(now, req.NotBefore)
		var c Completion
		switch req.Op {
		case OpReadPage:
			c.Data, c.Meta, c.Done, c.Err = s.dev.ReadPage(at, req.Addr, req.Buf)
		case OpProgram:
			c.Done, c.Err = s.dev.ProgramPage(at, req.Addr, req.Data, req.Meta)
		case OpErase:
			c.Done, c.Err = s.dev.EraseBlock(at, req.Block)
		case OpCopyback:
			c.Meta, c.Done, c.Err = s.dev.Copyback(at, req.Addr, req.Dst)
		default:
			c.Done = at
		}
		if c.Done > end {
			end = c.Done
		}
		if d := req.die(); d >= 0 && d < len(s.busyUntil) {
			s.busyUntil[d] = max(s.busyUntil[d], c.Done)
		}
		if s.tracer.Enabled() && c.Err == nil {
			ev := obs.Event{
				Class: obs.ClassFlash,
				Op:    uint8(req.Op),
				Prio:  uint8(req.Priority),
				Die:   int32(req.die()),
				Start: at,
				End:   c.Done,
				A:     int64(req.Tag),
			}
			if req.Op == OpErase {
				ev.Block, ev.Page = int32(req.Block.Block), -1
			} else {
				ev.Block, ev.Page = int32(req.Addr.Block), int32(req.Addr.Page)
			}
			ev.Region = -1
			s.tracer.Record(ev)
		}
		dst[base+i] = c
	}
	s.counts.Batches++
	s.counts.MaxBatch = max(s.counts.MaxBatch, int64(len(reqs)))
	return dst, end
}

// dispatchOrder returns the indices of reqs by die, in submission order within
// a die (programs to one block keep theirs), or nil if reqs is in that order.
// Requests to a die the device lacks go last: it refuses them untouched.
func (s *Scheduler) dispatchOrder(reqs []Request) []int {
	key := func(i int) int { return int(min(uint(reqs[i].die()), uint(len(s.busyUntil)))) }
	i := 1
	for i < len(reqs) && key(i-1) <= key(i) {
		i++
	}
	if i >= len(reqs) {
		return nil
	}
	s.byDie = slices.Grow(s.byDie[:0], len(s.busyUntil)+1)[:len(s.busyUntil)+1]
	for i := range reqs {
		s.byDie[key(i)] = append(s.byDie[key(i)], i)
	}
	s.order = s.order[:0]
	for d, idx := range s.byDie {
		s.order, s.byDie[d] = append(s.order, idx...), idx[:0]
	}
	return s.order
}

// DieIdleAt returns the virtual time at which the die becomes idle: the
// completion horizon of all work dispatched to it so far.  Background garbage
// collection submits its steps at max(now, DieIdleAt(die)) so that relocation
// work fills the die's idle slots instead of pushing in front of traffic that
// is already accounted on the die.
func (s *Scheduler) DieIdleAt(die int) sim.Time {
	if die < 0 || die >= len(s.busyUntil) {
		return 0
	}
	return s.busyUntil[die]
}

// Erase performs one block erase at the given priority: a batch of one for
// the caller whose command has nothing to be batched with.
func (s *Scheduler) Erase(now sim.Time, b flash.BlockAddr, prio Priority) (sim.Time, error) {
	var c [1]Completion
	cs, _ := s.SubmitAppend(c[:0], now, []Request{{Op: OpErase, Block: b, Priority: prio}})
	return cs[0].Done, cs[0].Err
}
