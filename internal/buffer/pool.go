// Package buffer implements the DBMS buffer pool used by the reproduction:
// a fixed set of page frames over the NoFTL space manager with CLOCK
// eviction, pin/unpin, per-frame latches, sequential read-ahead and batched
// dirty-page write-back.
//
// The frame table is sharded by LPN hash: each shard owns a disjoint set of
// frames, its own hash table and its own CLOCK hand, so concurrent fetchers
// that touch different pages almost never contend on a mutex.  Frame
// contents are protected by per-frame latches exactly as before; the shard
// mutex only covers the mapping table, pin counts and eviction state.
//
// Physical page reads and writes consume virtual time on the flash device;
// the pool threads the caller's virtual-time cursor through every operation
// so that buffer misses and dirty evictions show up in transaction response
// times exactly as they would on real hardware.
package buffer

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"noftl/internal/core"
	"noftl/internal/metrics"
	"noftl/internal/obs"
	"noftl/internal/sim"
)

// Backend is the page store underneath the pool.  *core.Manager satisfies
// it; tests plug in a simpler implementation.  ReadPage and WritePage are the
// one-page forms of ReadPages and WritePages: the pool uses the batched forms
// for multi-page misses, sequential read-ahead and write-back, so multi-page
// I/O stripes over the device's dies and overlaps in virtual time instead of
// serializing page by page.
type Backend interface {
	ReadPage(now sim.Time, lpn core.LPN, buf []byte) ([]byte, sim.Time, error)
	WritePage(now sim.Time, lpn core.LPN, data []byte, hint core.Hint) (sim.Time, error)
	ReadPages(now sim.Time, lpns []core.LPN, bufs [][]byte) ([]core.PageRead, sim.Time)
	WritePages(now sim.Time, writes []core.PageWrite) (sim.Time, error)
	Mapped(lpn core.LPN) bool
}

// ErrPoolFull reports that every evictable frame of the page's shard is
// pinned and nothing can be evicted.
var ErrPoolFull = errors.New("buffer: all frames pinned")

// poolShard is one slice of the pool: a disjoint set of frames with its own
// mapping table and CLOCK hand.  A page lives in exactly one shard (chosen by
// LPN hash), so two operations on different shards never share a mutex.
type poolShard struct {
	mu     sync.Mutex
	frames []*Frame
	table  map[core.LPN]int // lpn -> index into frames
	hand   int
}

// Frame is one page-sized slot of the pool.  A frame belongs permanently to
// one shard; the shard mutex guards every field except data (per-frame latch)
// and dirty (atomic).
type Frame struct {
	mu         sync.RWMutex // content latch
	shard      *poolShard
	lpn        core.LPN
	data       []byte
	hint       core.Hint
	dirty      atomic.Bool // set by MarkDirty without the shard mutex
	valid      bool
	pins       int
	ref        bool
	prefetched bool   // staged by read-ahead, not yet demanded
	handle     Handle // what every pin of the frame hands out
}

// Handle is a pinned reference to a frame.  Callers must Release it exactly
// once per pin, and must bracket data access with Lock/Unlock (writers) or
// RLock/RUnlock (readers).  A frame has one Handle, built with the frame: the
// pin is the count on the frame, so pinning allocates nothing and two pins of
// one page share their Handle.
type Handle struct {
	frame *Frame
}

// Data returns the frame's page buffer.  The caller must hold the frame
// latch while reading or writing it.
func (h *Handle) Data() []byte { return h.frame.data }

// LPN returns the logical page number of the pinned page.
func (h *Handle) LPN() core.LPN { return h.frame.lpn }

// Lock acquires the frame's write latch.
func (h *Handle) Lock() { h.frame.mu.Lock() }

// Unlock releases the frame's write latch.
func (h *Handle) Unlock() { h.frame.mu.Unlock() }

// RLock acquires the frame's read latch.
func (h *Handle) RLock() { h.frame.mu.RLock() }

// RUnlock releases the frame's read latch.
func (h *Handle) RUnlock() { h.frame.mu.RUnlock() }

// MarkDirty flags the page as modified so it will be written back before
// eviction.  Call it while holding the write latch.
func (h *Handle) MarkDirty() {
	h.frame.dirty.Store(true)
}

// Release unpins the page.
func (h *Handle) Release() {
	s := h.frame.shard
	s.mu.Lock()
	if h.frame.pins > 0 {
		h.frame.pins--
	}
	s.mu.Unlock()
}

// Stats is a snapshot of pool counters.
type Stats struct {
	Frames     int
	Resident   int
	Dirty      int
	Hits       int64
	Misses     int64
	NewPages   int64
	Evictions  int64
	Writebacks int64
	// Prefetches counts pages staged by sequential read-ahead;
	// PrefetchHits counts later demand hits on those pages.
	Prefetches   int64
	PrefetchHits int64
	// GroupFlushes counts batched write-back dispatches (each covering one
	// or more dirty pages).
	GroupFlushes int64
}

// HitRatio returns hits / (hits + misses), or zero when idle.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Options tune the pool's read-ahead.  The zero value disables it.
type Options struct {
	// ReadAhead is the number of sequentially-next pages staged in the same
	// backend batch as a demand miss.  Zero disables read-ahead.
	ReadAhead int
	// GroupWriteBack is ignored: write-back is always one die-striped batch.
	// The field remains only because the repository benchmark names it.
	GroupWriteBack bool
}

// Pool is the buffer pool.  All methods are safe for concurrent use once the
// pool is configured; AttachObs and Configure must happen before the pool
// sees traffic.
type Pool struct {
	backend  Backend
	tracer   *obs.Tracer // nil = tracing off (the only cost is nil compares)
	shards   []*poolShard
	nframes  int
	pageSize int
	opts     Options

	// hits, misses, evictions and writebacks are the pool's children of the
	// noftl_buffer_* families (bind); the rest have no family and stay plain.
	hits         *metrics.Counter
	misses       *metrics.Counter
	evictions    *metrics.Counter
	writebacks   *metrics.Counter
	newPages     atomic.Int64
	prefetches   atomic.Int64
	prefetchHits atomic.Int64
	groupFlushes atomic.Int64
}

// autoShards picks the shard count for a pool of frameCount frames: one
// shard per 64 frames, capped at 16, rounded down to a power of two.  Small
// pools keep a single shard, so their eviction behaviour is exactly that of
// a classic CLOCK pool.
func autoShards(frameCount int) int {
	n := frameCount / 64
	if n > 16 {
		n = 16
	}
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
}

// New creates a pool of frameCount frames of pageSize bytes over the
// backend.  The fourth parameter is ignored: the space manager counts the
// device commands of every object itself (core.ObjectCounters).  It remains
// only because the repository benchmark passes it.
func New(backend Backend, frameCount, pageSize int, _ any) *Pool {
	if frameCount < 2 {
		frameCount = 2
	}
	p := &Pool{
		backend:  backend,
		nframes:  frameCount,
		pageSize: pageSize,
	}
	p.buildShards(autoShards(frameCount))
	p.bind(metrics.NewRegistry())
	return p
}

// bind resolves the pool's children of its metric families on reg.
func (p *Pool) bind(reg *metrics.Registry) {
	p.hits = reg.Counter("noftl_buffer_hits_total", "Buffer-pool hits.").With()
	p.misses = reg.Counter("noftl_buffer_misses_total", "Buffer-pool demand misses.").With()
	p.evictions = reg.Counter("noftl_buffer_evictions_total", "Buffer-pool frame evictions.").With()
	p.writebacks = reg.Counter("noftl_buffer_writebacks_total", "Dirty pages written back by the buffer pool.").With()
}

// buildShards partitions the pool's frames over n shards (contiguous chunks,
// so shard sizes differ by at most one).
func (p *Pool) buildShards(n int) {
	p.shards = make([]*poolShard, n)
	base := p.nframes / n
	extra := p.nframes % n
	for i := range p.shards {
		size := base
		if i < extra {
			size++
		}
		s := &poolShard{
			frames: make([]*Frame, size),
			table:  make(map[core.LPN]int, size),
		}
		for j := range s.frames {
			f := &Frame{shard: s, data: make([]byte, p.pageSize)}
			f.handle.frame = f
			s.frames[j] = f
		}
		p.shards[i] = s
	}
}

// shardOf maps an LPN to its shard.  The hash is a 64-bit mix so sequential
// LPNs (extent neighbours) spread over all shards.
func (p *Pool) shardOf(lpn core.LPN) *poolShard {
	if len(p.shards) == 1 {
		return p.shards[0]
	}
	h := uint64(lpn)
	h ^= h >> 33
	h *= 0x9e3779b97f4a7c15
	h ^= h >> 29
	return p.shards[h%uint64(len(p.shards))]
}

// AttachObs wires the pool to the trace recorder and re-binds its counters to
// the shared registry reg.  A nil tracer (the default) keeps tracing off; hook
// sites then cost one nil compare.  Attach before the pool sees traffic.
func (p *Pool) AttachObs(tr *obs.Tracer, reg *metrics.Registry) {
	p.tracer = tr
	p.bind(reg)
}

// Configure sets the pool's options.  Configure before the pool sees
// traffic.
func (p *Pool) Configure(opts Options) {
	if opts.ReadAhead < 0 {
		opts.ReadAhead = 0
	}
	p.opts = opts
}

// PageSize returns the frame size in bytes.
func (p *Pool) PageSize() int { return p.pageSize }

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() Stats {
	st := Stats{
		Frames:       p.nframes,
		Hits:         p.hits.Value(),
		Misses:       p.misses.Value(),
		NewPages:     p.newPages.Load(),
		Evictions:    p.evictions.Value(),
		Writebacks:   p.writebacks.Value(),
		Prefetches:   p.prefetches.Load(),
		PrefetchHits: p.prefetchHits.Load(),
		GroupFlushes: p.groupFlushes.Load(),
	}
	for _, s := range p.shards {
		s.mu.Lock()
		for _, f := range s.frames {
			if f.valid {
				st.Resident++
				if f.dirty.Load() {
					st.Dirty++
				}
			}
		}
		s.mu.Unlock()
	}
	return st
}

// ResetCounters zeroes the hit/miss/eviction counters (after warm-up).
func (p *Pool) ResetCounters() {
	p.hits.Reset()
	p.misses.Reset()
	p.evictions.Reset()
	p.writebacks.Reset()
	p.newPages.Store(0)
	p.prefetches.Store(0)
	p.prefetchHits.Store(0)
	p.groupFlushes.Store(0)
}

// Fetch pins the page, reading it from the backend on a miss.  The returned
// time includes any eviction write-back and the read itself.
//
// When read-ahead is configured, a miss also stages the next sequential pages
// of the LPN space: they are read in the same scheduler batch as the demanded
// page (striping over dies costs almost no extra virtual time) and parked
// unpinned in the pool, so an upcoming sequential access hits in memory
// instead of missing.
func (p *Pool) Fetch(now sim.Time, lpn core.LPN, hint core.Hint) (*Handle, sim.Time, error) {
	s := p.shardOf(lpn)
	s.mu.Lock()
	if idx, ok := s.table[lpn]; ok {
		h := p.pinHitLocked(s.frames[idx], hint)
		s.mu.Unlock()
		return h, now, nil
	}
	f, now, err := p.claimMissLocked(s, now, lpn, hint)
	s.mu.Unlock()
	if err != nil {
		return nil, now, err
	}
	// Stage sequential read-ahead frames (each in its own shard, one shard
	// lock at a time — the demand shard's lock is already released).
	demand := [1]*Frame{f}
	claimed := demand[:]
	if p.opts.ReadAhead > 0 {
		claimed, now = p.stagePrefetch(now, lpn, hint, claimed)
	}
	// The caller pays for its own page only; the prefetched pages overlap on
	// other dies and their (near-identical) completion is not the caller's
	// concern.  They are charged to the demanding object: sequential LPNs
	// belong to the same extent in practice.
	done, _, err := p.fill(now, claimed, 1)
	if err != nil {
		return nil, done, err
	}
	return &f.handle, done, nil
}

// FetchMany pins a set of pages, reading every non-resident page from the
// backend in one die-striped scheduler batch.  The returned handles align
// with lpns (a duplicate is one more pin of the same frame, released once per
// position); the returned time is the batch makespan plus any eviction
// write-back the frame allocations caused.  On error no handles are retained.
// When every page is resident the returned slice is all it allocates.
func (p *Pool) FetchMany(now sim.Time, lpns []core.LPN, hint core.Hint) ([]*Handle, sim.Time, error) {
	handles := make([]*Handle, len(lpns))
	var (
		misses  []*Frame
		missPos []int
		err     error
	)
	// releaseHits drops the pins taken on resident pages; a miss's pin is
	// dropped where its claim or its read failed.
	releaseHits := func() {
		for _, i := range missPos {
			handles[i] = nil
		}
		for _, h := range handles {
			if h != nil {
				h.Release()
			}
		}
	}
	// Visit the shards in the order they first appear (eviction write-back
	// then chains deterministically), one shard lock at a time: pin residents
	// and claim frames for misses, then read all misses as a single batch.  A
	// position is done once its handle is set.
	for first := range lpns {
		if handles[first] != nil {
			continue
		}
		s := p.shardOf(lpns[first])
		s.mu.Lock()
		for i := first; i < len(lpns); i++ {
			if handles[i] != nil || p.shardOf(lpns[i]) != s {
				continue
			}
			if idx, ok := s.table[lpns[i]]; ok {
				handles[i] = p.pinHitLocked(s.frames[idx], hint)
				continue
			}
			var f *Frame
			if f, now, err = p.claimMissLocked(s, now, lpns[i], hint); err != nil {
				break
			}
			misses = append(misses, f)
			missPos = append(missPos, i)
			handles[i] = &f.handle
		}
		s.mu.Unlock()
		if err != nil {
			for _, f := range misses {
				f.mu.Unlock()
				p.unpin(f, true)
			}
			releaseHits()
			return nil, now, err
		}
	}
	if len(misses) == 0 {
		return handles, now, nil
	}
	_, end, err := p.fill(now, misses, len(misses))
	if err != nil {
		releaseHits()
		return nil, end, err
	}
	return handles, end, nil
}

// pinHitLocked pins a resident frame for a demand access.  The demander knows
// the page's true placement hint; it replaces the frame's, so a frame staged
// by read-ahead across an object boundary is written back to its own object's
// region, not the prefetcher's.  Caller holds the frame's shard mutex.
func (p *Pool) pinHitLocked(f *Frame, hint core.Hint) *Handle {
	f.pins++
	f.ref = true
	f.hint = hint
	p.hits.Add(1)
	if f.prefetched {
		f.prefetched = false
		p.prefetchHits.Add(1)
	}
	return &f.handle
}

// claimMissLocked counts a demand miss on the page and claims a frame for
// it.  Caller holds s.mu.
func (p *Pool) claimMissLocked(s *poolShard, now sim.Time, lpn core.LPN, hint core.Hint) (*Frame, sim.Time, error) {
	p.misses.Add(1)
	if p.tracer.Enabled(obs.ClassBufMiss) {
		p.tracer.Record(obs.Event{
			Class: obs.ClassBufMiss, Die: -1, Block: -1, Page: -1,
			Region: int32(hint.Region), Start: now, End: now, A: int64(lpn),
		})
	}
	return p.claimLocked(s, now, lpn, hint)
}

// claimLocked evicts a frame of shard s for the page and publishes it pinned
// once, clean, and with its content latch held: a concurrent Fetch of the
// same page hits in the table the moment it is published and then blocks on
// the latch until the claimer has put the contents in place and released it.
// The latch acquisition cannot block: the frame had zero pins, so no latch
// holder (or waiter) can exist.  The returned time includes any eviction
// write-back.  Caller holds s.mu.
func (p *Pool) claimLocked(s *poolShard, now sim.Time, lpn core.LPN, hint core.Hint) (*Frame, sim.Time, error) {
	idx, now, err := p.allocFrameLocked(s, now)
	if err != nil {
		return nil, now, err
	}
	f := s.frames[idx]
	f.lpn = lpn
	f.hint = hint
	f.valid = true
	f.dirty.Store(false)
	f.prefetched = false
	f.pins = 1
	f.ref = true
	f.mu.Lock()
	s.table[lpn] = idx
	return f, now, nil
}

// unpin drops one pin of the frame.  With unpublish the frame also leaves
// the table because its contents never arrived; a concurrent Fetch that hit
// the published frame meanwhile keeps its pin, and the frame is reused once
// that is released.
func (p *Pool) unpin(f *Frame, unpublish bool) {
	s := f.shard
	s.mu.Lock()
	if f.pins > 0 {
		f.pins--
	}
	if unpublish {
		delete(s.table, f.lpn)
		f.valid = false
		f.prefetched = false
	}
	s.mu.Unlock()
}

// fill reads the pages of the claimed frames from the backend in one
// submission and releases their content latches.  The first demand frames
// were claimed for the caller, the rest staged by read-ahead: on success the
// demand frames keep their pin (the caller's handles) and the staged frames
// are parked unpinned; a frame whose read failed (e.g. the page vanished
// under a concurrent trim) is unpublished, and when that happens to a demand
// frame the call fails and no frame stays pinned.  It returns the completion
// time of frames[0], the batch makespan and the first demand error.
func (p *Pool) fill(now sim.Time, frames []*Frame, demand int) (first, end sim.Time, err error) {
	var one [1]core.PageRead
	reads := one[:]
	if len(frames) == 1 {
		// The backend's one-page entry into the same path allocates nothing.
		_, one[0].Done, one[0].Err = p.backend.ReadPage(now, frames[0].lpn, frames[0].data)
		end = one[0].Done
	} else {
		lpns := make([]core.LPN, len(frames))
		bufs := make([][]byte, len(frames))
		for i, f := range frames {
			lpns[i], bufs[i] = f.lpn, f.data
		}
		reads, end = p.backend.ReadPages(now, lpns, bufs)
	}
	for i, f := range frames {
		f.mu.Unlock()
		if rerr := reads[i].Err; rerr != nil && i < demand && err == nil {
			err = fmt.Errorf("buffer: fetch lpn %d: %w", f.lpn, rerr)
		}
	}
	for i, f := range frames {
		if failed := reads[i].Err != nil; failed || err != nil || i >= demand {
			p.unpin(f, failed)
		}
	}
	return reads[0].Done, end, err
}

// WriteThrough writes page images to the backend as one die-striped batch
// without staging them in the pool (bulk-load path: the pages are complete
// and cold, so buffering them would only push hotter pages out).  Resident
// copies of the written pages, if any, are dropped.
func (p *Pool) WriteThrough(now sim.Time, writes []core.PageWrite) (sim.Time, error) {
	if len(writes) == 0 {
		return now, nil
	}
	done, err := p.backend.WritePages(now, writes)
	if err != nil {
		return now, err
	}
	for _, w := range writes {
		p.Drop(w.LPN)
		p.writebacks.Add(1)
	}
	p.noteGroupWrite(now, done, len(writes))
	return done, nil
}

// noteGroupWrite counts one batched write dispatch of n pages and records
// its write-back event.
func (p *Pool) noteGroupWrite(start, done sim.Time, n int) {
	p.groupFlushes.Add(1)
	if p.tracer.Enabled(obs.ClassBufWriteBack) {
		p.tracer.Record(obs.Event{
			Class: obs.ClassBufWriteBack, Op: obs.BufWriteBackGroup,
			Die: -1, Block: -1, Page: -1, Region: -1,
			Start: start, End: done, A: int64(n),
		})
	}
}

// stagePrefetch claims frames for the mapped, non-resident pages sequentially
// following lpn and appends them to claimed, content latches held and one
// staging pin each.  Each page is staged under its own shard's lock; the
// returned time includes any eviction write-back the claims caused.
func (p *Pool) stagePrefetch(now sim.Time, lpn core.LPN, hint core.Hint, claimed []*Frame) ([]*Frame, sim.Time) {
	for i := 1; i <= p.opts.ReadAhead; i++ {
		next := lpn + core.LPN(i)
		if !p.backend.Mapped(next) {
			continue
		}
		s := p.shardOf(next)
		s.mu.Lock()
		if _, resident := s.table[next]; resident {
			s.mu.Unlock()
			continue
		}
		// The claim's pin keeps a CLOCK sweep (even one triggered by the next
		// staging claim) from evicting the frame while the read is in flight;
		// fill drops it once the batch completes.
		pf, t, err := p.claimLocked(s, now, next, hint)
		if err != nil {
			s.mu.Unlock()
			break // every frame pinned: the pool is too hot to prefetch into
		}
		now = t
		pf.prefetched = true
		pf.ref = false // evict-first until a demand access promotes it
		s.mu.Unlock()
		claimed = append(claimed, pf)
		p.prefetches.Add(1)
	}
	return claimed, now
}

// NewPage pins a frame for a brand-new page without reading the backend.
// The frame starts zeroed and dirty.
func (p *Pool) NewPage(now sim.Time, lpn core.LPN, hint core.Hint) (*Handle, sim.Time, error) {
	s := p.shardOf(lpn)
	s.mu.Lock()
	defer s.mu.Unlock()
	p.newPages.Add(1)
	var f *Frame
	if idx, ok := s.table[lpn]; ok {
		// The page is already resident (e.g. re-created after a trim); reuse
		// the frame and reset its contents.
		f = s.frames[idx]
		f.pins++
		f.ref = true
		f.prefetched = false
	} else {
		var err error
		if f, now, err = p.claimLocked(s, now, lpn, hint); err != nil {
			return nil, now, err
		}
		f.mu.Unlock() // nothing to wait for: the page has no stored contents
	}
	f.dirty.Store(true)
	clear(f.data)
	return &f.handle, now, nil
}

// allocFrameLocked finds a victim frame in shard s using the CLOCK policy,
// writing it back if dirty.  Caller holds s.mu; the mutex stays held
// throughout (the backend write is bookkeeping plus virtual-time math, not
// real I/O).  A victim has zero pins, so no latch holder can exist and its
// data may be read directly.
func (p *Pool) allocFrameLocked(s *poolShard, now sim.Time) (int, sim.Time, error) {
	// First pass preference: an invalid (never used) frame.
	for i, f := range s.frames {
		if !f.valid && f.pins == 0 {
			return i, now, nil
		}
	}
	// CLOCK sweep, at most two full rounds.
	for sweep := 0; sweep < 2*len(s.frames); sweep++ {
		idx := s.hand
		s.hand = (s.hand + 1) % len(s.frames)
		f := s.frames[idx]
		if f.pins > 0 {
			continue
		}
		if f.ref {
			f.ref = false
			continue
		}
		// Victim found.
		dirty := f.dirty.Load()
		if dirty {
			start := now
			done, err := p.backend.WritePage(now, f.lpn, f.data, f.hint)
			if err != nil {
				return 0, now, fmt.Errorf("buffer: writeback lpn %d: %w", f.lpn, err)
			}
			now = done
			p.writebacks.Add(1)
			if p.tracer.Enabled(obs.ClassBufWriteBack) {
				p.tracer.Record(obs.Event{
					Class: obs.ClassBufWriteBack, Op: obs.BufWriteBackSingle,
					Die: -1, Block: -1, Page: -1, Region: int32(f.hint.Region),
					Start: start, End: done, A: int64(f.lpn),
				})
			}
		}
		if p.tracer.Enabled(obs.ClassBufEvict) {
			var b int64
			if dirty {
				b = 1
			}
			p.tracer.Record(obs.Event{
				Class: obs.ClassBufEvict, Die: -1, Block: -1, Page: -1,
				Region: int32(f.hint.Region), Start: now, End: now,
				A: int64(f.lpn), B: b,
			})
		}
		delete(s.table, f.lpn)
		f.valid = false
		f.dirty.Store(false)
		f.prefetched = false
		p.evictions.Add(1)
		return idx, now, nil
	}
	return 0, now, ErrPoolFull
}

// Flush writes every dirty, unpinned resident page back to the backend as one
// die-striped scheduler batch, so a checkpoint costs roughly one write per die
// instead of one write per page in virtual time: the backend allocates the
// batch's slots round-robin over the target regions' dies, and the programs
// stripe and overlap.  It returns how many pages it wrote and how many dirty
// pages it had to leave behind because they are pinned: someone is modifying
// them, and they reach the backend on eviction or with a later flush.  A
// checkpoint whose durable state is the flushed pages cannot complete while
// any are left.
//
// Candidates are collected shard by shard; each is given a flush pin and a
// read latch so that neither eviction nor a concurrent modification can touch
// its data while the batch is in flight (a frame with zero pins cannot have a
// latch holder, so the read latch is acquired without blocking).
func (p *Pool) Flush(now sim.Time) (done sim.Time, flushed, left int, err error) {
	var frames []*Frame
	var writes []core.PageWrite
	for _, s := range p.shards {
		s.mu.Lock()
		for _, f := range s.frames {
			if !f.valid || !f.dirty.Load() {
				continue
			}
			if f.pins > 0 {
				left++
				continue
			}
			f.pins++
			f.mu.RLock()
			// Clear dirty before the write: MarkDirty cannot run while we
			// hold the read latch, and any modification after we release it
			// re-marks the page, so no update is lost.
			f.dirty.Store(false)
			frames = append(frames, f)
			writes = append(writes, core.PageWrite{LPN: f.lpn, Data: f.data, Hint: f.hint})
		}
		s.mu.Unlock()
	}
	if len(writes) == 0 {
		return now, 0, left, nil
	}
	done, err = p.backend.WritePages(now, writes)
	for _, f := range frames {
		if err != nil {
			// Leave the page dirty: pages the batch did manage to program
			// are remapped in the backend and will simply be written again
			// (wasted work, never lost data).
			f.dirty.Store(true)
		}
		f.mu.RUnlock()
		p.unpin(f, false)
		if err == nil {
			p.writebacks.Add(1)
		}
	}
	if err != nil {
		return now, 0, left, err
	}
	p.noteGroupWrite(now, done, len(frames))
	return done, len(frames), left, nil
}

// FlushAll is Flush for callers that only need the pages on their way: what
// stays behind pinned is written back later.
func (p *Pool) FlushAll(now sim.Time) (sim.Time, error) {
	done, _, _, err := p.Flush(now)
	return done, err
}

// Drop removes a page from the pool without writing it back (used when an
// object is dropped and its pages trimmed).
func (p *Pool) Drop(lpn core.LPN) {
	s := p.shardOf(lpn)
	s.mu.Lock()
	defer s.mu.Unlock()
	if idx, ok := s.table[lpn]; ok {
		f := s.frames[idx]
		if f.pins == 0 {
			delete(s.table, lpn)
			f.valid = false
			f.dirty.Store(false)
			f.prefetched = false
		}
	}
}
