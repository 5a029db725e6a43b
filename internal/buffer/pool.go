// Package buffer implements the DBMS buffer pool used by the reproduction:
// a fixed set of page frames over the NoFTL space manager with CLOCK
// eviction, pin/unpin and batched dirty-page write-back.  The pool takes no
// lock: the database runs one operation at a time (see noftl.DB), so every
// call has the pool to itself.
//
// The frames are partitioned by LPN hash into replacement partitions: each
// owns a disjoint set of frames, a bitmap of those that hold no page and its
// own CLOCK hand, so a page competes for a frame only with the pages of its
// partition.  The partitions decide eviction and the order in which Flush
// hands dirty pages to the device.  They share one dense LPN → frame table
// (core.LPNTable).
//
// Physical page reads and writes consume virtual time on the flash device;
// the pool threads the caller's virtual-time cursor through every operation
// so that buffer misses and dirty evictions show up in transaction response
// times exactly as they would on real hardware.
//
// A page's bytes are kept once: a clean frame holds the device's buffer, read
// only, and Handle.Writable copies it before a write.  A write-back hands the
// copy to the device: nobody writes it again, whether or not that succeeded.
package buffer

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"noftl/internal/core"
	"noftl/internal/obs"
	"noftl/internal/sim"
)

// Backend is the page store underneath the pool.  *core.Manager satisfies
// it; tests plug in a simpler implementation.  ReadPage and WritePage are the
// one-page forms of ReadPages and WritePages: the pool uses the batched forms
// for multi-page misses and write-back, so multi-page I/O stripes over the
// device's dies and overlaps in virtual time instead of serializing page by
// page.
type Backend interface {
	ReadPage(now sim.Time, lpn core.LPN, buf []byte) ([]byte, sim.Time, error)
	WritePage(now sim.Time, lpn core.LPN, data []byte, hint core.Hint) (sim.Time, error)
	ReadPages(now sim.Time, lpns []core.LPN, bufs [][]byte) ([]core.PageRead, sim.Time)
	WritePages(now sim.Time, writes []core.PageWrite) (sim.Time, error)
	PageBuf() []byte
	Hold(buf []byte)
	Release(buf []byte)
}

// ErrPoolFull reports that every frame of the page's partition is pinned and
// nothing can be evicted.
var ErrPoolFull = errors.New("buffer: all frames pinned")

// poolShard is one replacement partition of the pool: a disjoint set of
// frames with its own CLOCK hand.  A page lives in exactly one partition
// (chosen by LPN hash).
type poolShard struct {
	frames []*Frame
	empty  []uint64 // bit i set: frames[i] holds no page
	hand   int
}

// holds reports whether frame f holds a page.
func (s *poolShard) holds(f *Frame) bool {
	return s.empty[f.idx/64]&(1<<(f.idx%64)) == 0
}

// Frame is one page slot of the pool.  A frame belongs permanently to one
// partition.
type Frame struct {
	shard  *poolShard
	idx    int // position in shard.frames
	lpn    core.LPN
	data   []byte  // the page's bytes, held by the frame; nil when it holds no page
	own    bool    // data is the frame's private buffer, writable
	bufs   Backend // where data comes from and goes back to
	hint   core.Hint
	dirty  bool
	pins   int
	ref    bool
	handle Handle // what every pin of the frame hands out
}

// Handle is a pinned reference to a frame.  Callers must Release it exactly
// once per pin.  A frame has one Handle, built with the frame: the pin is the
// count on the frame, so pinning allocates nothing and two pins of one page
// share their Handle.
type Handle struct {
	frame *Frame
}

// Data returns the page's bytes, read-only unless Writable returned them.
func (h *Handle) Data() []byte { return h.frame.data }

// Writable gives the frame a private copy of the page, unless it has one, and
// returns it: call it before the first write, and write only what it returns.
func (h *Handle) Writable() []byte {
	if f := h.frame; !f.own {
		buf := f.bufs.PageBuf()
		copy(buf, f.data)
		f.bufs.Release(f.data)
		f.data, f.own = buf, true
	}
	return h.frame.data
}

// LPN returns the logical page number of the pinned page.
func (h *Handle) LPN() core.LPN { return h.frame.lpn }

// MarkDirty flags the page as modified so it will be written back before
// eviction.
func (h *Handle) MarkDirty() { h.frame.dirty = true }

// Release unpins the page.
func (h *Handle) Release() {
	if h.frame.pins > 0 {
		h.frame.pins--
	}
}

// Stats is a snapshot of the pool: its counts since the last ResetCounters,
// which the pool keeps in a Stats value of its own, and its frames.
type Stats struct {
	Frames     int
	Resident   int
	Dirty      int
	Hits       int64
	Misses     int64
	NewPages   int64
	Evictions  int64
	Writebacks int64
	// Prefetches and PrefetchHits are always zero: the pool reads only the
	// pages it is asked for.  They remain only because the repository
	// benchmark reports them.
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

// Options has nothing to tune: GroupWriteBack is ignored, write-back is
// always one die-striped batch.  The type remains only because the repository
// benchmark names it.
type Options struct {
	GroupWriteBack bool
}

// Pool is the buffer pool.  It is not safe for concurrent use.
type Pool struct {
	backend  Backend
	tracer   *obs.Tracer // nil = tracing off (the only cost is nil compares)
	shards   []*poolShard
	nframes  int
	pageSize int

	// table maps a resident page to its frame's index in its partition plus
	// one (zero: not resident).
	table core.LPNTable[int32]

	// Flush's candidate slices, reused across calls.
	flushFrames []*Frame
	flushWrites []core.PageWrite

	counts Stats // the counts; Stats fills in the frames
}

// autoShards picks the partition count for a pool of frameCount frames: one
// partition per 64 frames, capped at 16, rounded down to a power of two.
// Small pools keep a single partition, so their eviction behaviour is exactly
// that of a classic CLOCK pool.
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
	return p
}

// buildShards partitions the pool's frames over n partitions (contiguous
// chunks, so their sizes differ by at most one).
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
			empty:  make([]uint64, (size+63)/64),
		}
		for j := range s.frames {
			f := &Frame{shard: s, idx: j, bufs: p.backend}
			f.handle.frame = f
			s.frames[j] = f
			s.empty[j/64] |= 1 << (j % 64)
		}
		p.shards[i] = s
	}
}

// shardOf maps an LPN to its partition.  The hash is a 64-bit mix so
// sequential LPNs (extent neighbours) spread over all partitions.
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

// AttachObs wires the pool to the trace recorder.  A nil tracer (the default)
// keeps tracing off; hook sites then cost one nil compare.
func (p *Pool) AttachObs(tr *obs.Tracer) { p.tracer = tr }

// Configure does nothing: Options has nothing to tune.  It remains only
// because the repository benchmark calls it.
func (p *Pool) Configure(Options) {}

// PageSize returns the frame size in bytes.
func (p *Pool) PageSize() int { return p.pageSize }

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() Stats {
	st := p.counts
	st.Frames = p.nframes
	for _, s := range p.shards {
		for _, f := range s.frames {
			if s.holds(f) {
				st.Resident++
				if f.dirty {
					st.Dirty++
				}
			}
		}
	}
	return st
}

// ResetCounters zeroes the hit/miss/eviction counters (after warm-up).
func (p *Pool) ResetCounters() { p.counts = Stats{} }

// Fetch pins the page, reading it from the backend on a miss.  The returned
// time includes any eviction write-back and the read itself.  It is not
// FetchMany of one page: most fetches are resident hits, and a hit through
// FetchMany's loop costs about 2.5 times as much (BenchmarkFetchHit's loop
// timed both ways: 8 ns against 21 ns on a 2-vCPU Xeon).
func (p *Pool) Fetch(now sim.Time, lpn core.LPN, hint core.Hint) (*Handle, sim.Time, error) {
	s := p.shardOf(lpn)
	if f := p.resident(s, lpn); f != nil {
		return p.pinHit(f, hint), now, nil
	}
	f, now, err := p.claimMiss(s, now, lpn, hint)
	if err != nil {
		return nil, now, err
	}
	done, err := p.fill(now, []*Frame{f})
	if err != nil {
		return nil, done, err
	}
	return &f.handle, done, nil
}

// FetchMany pins a set of pages, reading every non-resident page from the
// backend in one die-striped scheduler batch.  It appends one handle per lpn
// to dst and returns the extended slice: the handles align with lpns (a
// duplicate is one more pin of the same frame, released once per position).
// The returned time is the batch makespan plus any eviction write-back the
// frame allocations caused.  On error no handles are retained and dst is
// returned unchanged.  When every page is resident and dst has room, it
// allocates nothing.
func (p *Pool) FetchMany(dst []*Handle, now sim.Time, lpns []core.LPN, hint core.Hint) ([]*Handle, sim.Time, error) {
	base := len(dst)
	dst = slices.Grow(dst, len(lpns))[:base+len(lpns)]
	handles := dst[base:]
	clear(handles)
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
	// Visit the partitions in the order they first appear (eviction
	// write-back then chains deterministically), one partition at a time: pin
	// residents and claim frames for misses, then read all misses as a single
	// batch.  A position is done once its handle is set.
	for first := range lpns {
		if handles[first] != nil {
			continue
		}
		s := p.shardOf(lpns[first])
		for i := first; i < len(lpns); i++ {
			if handles[i] != nil || p.shardOf(lpns[i]) != s {
				continue
			}
			if f := p.resident(s, lpns[i]); f != nil {
				handles[i] = p.pinHit(f, hint)
				continue
			}
			var f *Frame
			if f, now, err = p.claimMiss(s, now, lpns[i], hint); err != nil {
				break
			}
			misses = append(misses, f)
			missPos = append(missPos, i)
			handles[i] = &f.handle
		}
		if err != nil {
			for _, f := range misses {
				p.unpin(f, true)
			}
			releaseHits()
			return dst[:base], now, err
		}
	}
	if len(misses) == 0 {
		return dst, now, nil
	}
	end, err := p.fill(now, misses)
	if err != nil {
		releaseHits()
		return dst[:base], end, err
	}
	return dst, end, nil
}

// resident returns the frame of partition s that holds lpn, or nil when the
// page is not resident.
func (p *Pool) resident(s *poolShard, lpn core.LPN) *Frame {
	if e := p.table.At(lpn); e != nil && *e != 0 {
		return s.frames[*e-1]
	}
	return nil
}

// vacate takes the frame's page out of the table, releases its buffer and
// marks the frame empty and clean.
func (p *Pool) vacate(f *Frame) {
	*p.table.At(f.lpn) = 0
	f.shard.empty[f.idx/64] |= 1 << (f.idx % 64)
	p.backend.Release(f.data)
	f.data, f.own, f.dirty = nil, false, false
}

// pinHit pins a resident frame for a demand access; the demander's placement
// hint replaces the frame's.
func (p *Pool) pinHit(f *Frame, hint core.Hint) *Handle {
	f.pins++
	f.ref = true
	f.hint = hint
	p.counts.Hits++
	return &f.handle
}

// claimMiss counts a demand miss on the page and claims a frame for it.
func (p *Pool) claimMiss(s *poolShard, now sim.Time, lpn core.LPN, hint core.Hint) (*Frame, sim.Time, error) {
	p.counts.Misses++
	if p.tracer.Enabled() {
		p.tracer.Record(obs.Event{
			Class: obs.ClassBufMiss, Die: -1, Block: -1, Page: -1,
			Region: int32(hint.Region), Start: now, End: now, A: int64(lpn),
		})
	}
	return p.claim(s, now, lpn, hint)
}

// claim evicts a frame of partition s for the page and enters it in the
// table, pinned once and clean.  The returned time includes any eviction
// write-back.
func (p *Pool) claim(s *poolShard, now sim.Time, lpn core.LPN, hint core.Hint) (*Frame, sim.Time, error) {
	if lpn >= core.MaxTableLPN {
		return nil, now, fmt.Errorf("buffer: lpn %d: %w", lpn, core.ErrUnmappedPage)
	}
	idx, now, err := p.allocFrame(s, now)
	if err != nil {
		return nil, now, err
	}
	f := s.frames[idx]
	f.lpn = lpn
	f.hint = hint
	f.dirty = false
	f.pins = 1
	f.ref = true
	s.empty[idx/64] &^= 1 << (idx % 64)
	*p.table.Slot(lpn) = int32(idx + 1)
	return f, now, nil
}

// unpin drops one pin of the frame.  With unpublish the frame also leaves
// the table because its contents never arrived.
func (p *Pool) unpin(f *Frame, unpublish bool) {
	if f.pins > 0 {
		f.pins--
	}
	if unpublish {
		p.vacate(f)
	}
}

// fill reads the pages of the claimed frames from the backend in one
// submission; each frame holds the buffer the backend returns.  On success
// every frame keeps its pin (the caller's handles); a frame whose read failed
// (e.g. the page was trimmed) leaves the table, and then the call fails and
// no frame stays pinned.  It returns the batch makespan and the first error.
func (p *Pool) fill(now sim.Time, frames []*Frame) (end sim.Time, err error) {
	var one [1]core.PageRead
	reads := one[:]
	if len(frames) == 1 {
		// The backend's one-page entry into the same path allocates nothing.
		one[0].Data, one[0].Done, one[0].Err = p.backend.ReadPage(now, frames[0].lpn, nil)
		end = one[0].Done
	} else {
		lpns := make([]core.LPN, len(frames))
		for i, f := range frames {
			lpns[i] = f.lpn
		}
		reads, end = p.backend.ReadPages(now, lpns, nil)
	}
	for i, f := range frames {
		if rerr := reads[i].Err; rerr != nil && err == nil {
			err = fmt.Errorf("buffer: fetch lpn %d: %w", f.lpn, rerr)
		}
		f.data = reads[i].Data // nil when the read failed
		p.backend.Hold(f.data)
	}
	if err != nil {
		for i, f := range frames {
			p.unpin(f, reads[i].Err != nil)
		}
	}
	return end, err
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
		p.counts.Writebacks++
	}
	p.noteGroupWrite(now, done, len(writes))
	return done, nil
}

// noteGroupWrite counts one batched write dispatch of n pages and records
// its write-back event.
func (p *Pool) noteGroupWrite(start, done sim.Time, n int) {
	p.counts.GroupFlushes++
	if p.tracer.Enabled() {
		p.tracer.Record(obs.Event{
			Class: obs.ClassBufWriteBack, Op: obs.BufWriteBackGroup,
			Die: -1, Block: -1, Page: -1, Region: -1,
			Start: start, End: done, A: int64(n),
		})
	}
}

// NewPage pins a frame for a brand-new page without reading the backend.
// The frame is dirty and writable, and what it holds is not the page's: the
// caller formats every byte (storage.InitPage zeroes the page).
func (p *Pool) NewPage(now sim.Time, lpn core.LPN, hint core.Hint) (*Handle, sim.Time, error) {
	return p.AdoptPage(now, lpn, hint, nil)
}

// AdoptPage is NewPage for a page the caller has already formatted in buf, a
// buffer from the backend's PageBuf that it holds: the frame takes buf and
// the caller's hold on it, and on error the caller keeps both.  A nil buf is
// NewPage.
func (p *Pool) AdoptPage(now sim.Time, lpn core.LPN, hint core.Hint, buf []byte) (*Handle, sim.Time, error) {
	s := p.shardOf(lpn)
	p.counts.NewPages++
	f := p.resident(s, lpn)
	if f != nil {
		// The page is already resident (e.g. re-created after a trim); reuse
		// the frame.
		f.pins++
		f.ref = true
	} else {
		var err error
		if f, now, err = p.claim(s, now, lpn, hint); err != nil {
			return nil, now, err
		}
	}
	f.dirty = true
	switch {
	case buf != nil:
		f.bufs.Release(f.data)
		f.data, f.own = buf, true
	case !f.own: // a buffer of its own, with none of the bytes the frame held
		f.bufs.Release(f.data)
		f.data, f.own = f.bufs.PageBuf(), true
	}
	return &f.handle, now, nil
}

// allocFrame finds a victim frame in partition s using the CLOCK policy,
// writing it back if dirty.
func (p *Pool) allocFrame(s *poolShard, now sim.Time) (int, sim.Time, error) {
	// First preference: the lowest-index frame that holds no page and is not
	// pinned.
	for w, word := range s.empty {
		for ; word != 0; word &= word - 1 {
			if i := w*64 + bits.TrailingZeros64(word); s.frames[i].pins == 0 {
				return i, now, nil
			}
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
		dirty := f.dirty
		if dirty {
			start := now
			done, err := p.backend.WritePage(now, f.lpn, f.data, f.hint)
			if err != nil {
				return 0, now, fmt.Errorf("buffer: writeback lpn %d: %w", f.lpn, err)
			}
			now = done
			p.counts.Writebacks++
			if p.tracer.Enabled() {
				p.tracer.Record(obs.Event{
					Class: obs.ClassBufWriteBack, Op: obs.BufWriteBackSingle,
					Die: -1, Block: -1, Page: -1, Region: int32(f.hint.Region),
					Start: start, End: done, A: int64(f.lpn),
				})
			}
		}
		if p.tracer.Enabled() {
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
		p.vacate(f)
		p.counts.Evictions++
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
// any are left.  Candidates are collected partition by partition.
func (p *Pool) Flush(now sim.Time) (done sim.Time, flushed, left int, err error) {
	frames, writes := p.flushFrames[:0], p.flushWrites[:0]
	for _, s := range p.shards {
		for _, f := range s.frames {
			if !s.holds(f) || !f.dirty {
				continue
			}
			if f.pins > 0 {
				left++
				continue
			}
			frames = append(frames, f)
			writes = append(writes, core.PageWrite{LPN: f.lpn, Data: f.data, Hint: f.hint})
		}
	}
	if len(writes) == 0 {
		return now, 0, left, nil
	}
	done, err = p.backend.WritePages(now, writes)
	for _, f := range frames {
		// On failure the page stays dirty: pages the batch did manage to
		// program are remapped in the backend and will simply be written
		// again (wasted work, never lost data).
		f.own = false // the device's now
		if err == nil {
			f.dirty = false
			p.counts.Writebacks++
		}
	}
	// Keep the grown slices for the next flush, but no page payload.
	clear(frames)
	clear(writes)
	p.flushFrames, p.flushWrites = frames[:0], writes[:0]
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
	if f := p.resident(p.shardOf(lpn), lpn); f != nil && f.pins == 0 {
		p.vacate(f)
	}
}
