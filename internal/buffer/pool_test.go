package buffer

import (
	"errors"
	"testing"
	"time"

	"noftl/internal/core"
	"noftl/internal/sim"
)

// memBackend is an in-memory Backend with fixed per-operation virtual
// latencies, used to test the pool in isolation from the flash stack.  The
// pages of a batch all complete one latency after submission (perfect
// overlap), which is what the real scheduler produces for a die-striped
// batch.
type memBackend struct {
	pages       map[core.LPN][]byte
	pageSize    int
	readLat     time.Duration
	writeLat    time.Duration
	reads       int // pages read
	writes      int // pages written
	batchReads  int // ReadPages dispatches
	batchWrites int // WritePages dispatches
	failRead    bool
}

func newMemBackend(pageSize int) *memBackend {
	return &memBackend{
		pages:    make(map[core.LPN][]byte),
		pageSize: pageSize,
		readLat:  50 * time.Microsecond,
		writeLat: 300 * time.Microsecond,
	}
}

// read is the one-page read both forms share.
func (b *memBackend) read(now sim.Time, lpn core.LPN, buf []byte) ([]byte, sim.Time, error) {
	if b.failRead {
		return nil, now, errors.New("injected read failure")
	}
	data, ok := b.pages[lpn]
	if !ok {
		return nil, now, core.ErrUnmappedPage
	}
	b.reads++
	if buf == nil {
		buf = make([]byte, b.pageSize)
	}
	copy(buf, data)
	return buf, now.Add(b.readLat), nil
}

func (b *memBackend) ReadPage(now sim.Time, lpn core.LPN, buf []byte) ([]byte, sim.Time, error) {
	return b.read(now, lpn, buf)
}

func (b *memBackend) ReadPages(now sim.Time, lpns []core.LPN, bufs [][]byte) ([]core.PageRead, sim.Time) {
	b.batchReads++
	out := make([]core.PageRead, len(lpns))
	end := now
	for i, lpn := range lpns {
		var buf []byte
		if i < len(bufs) {
			buf = bufs[i]
		}
		out[i].LPN = lpn
		out[i].Data, out[i].Done, out[i].Err = b.read(now, lpn, buf)
		if out[i].Done > end {
			end = out[i].Done
		}
	}
	return out, end
}

func (b *memBackend) WritePage(now sim.Time, lpn core.LPN, data []byte, hint core.Hint) (sim.Time, error) {
	b.store(lpn, data)
	return now.Add(b.writeLat), nil
}

func (b *memBackend) WritePages(now sim.Time, writes []core.PageWrite) (sim.Time, error) {
	b.batchWrites++
	for _, w := range writes {
		b.store(w.LPN, w.Data)
	}
	return now.Add(b.writeLat), nil
}

// The pool's private buffers come from the heap; the backend keeps copies,
// so it counts no holds.
func (b *memBackend) PageBuf() []byte { return make([]byte, b.pageSize) }
func (b *memBackend) Hold([]byte)     {}
func (b *memBackend) Release([]byte)  {}

func (b *memBackend) store(lpn core.LPN, data []byte) {
	cp := make([]byte, len(data))
	copy(cp, data)
	b.pages[lpn] = cp
	b.writes++
}

// seed stores n pages with LPNs 1..n directly in the backend.
func (b *memBackend) seed(n int) {
	for i := 1; i <= n; i++ {
		data := make([]byte, b.pageSize)
		data[0] = byte(i)
		b.pages[core.LPN(i)] = data
	}
}

func TestPoolNewPageFetchRoundTrip(t *testing.T) {
	be := newMemBackend(256)
	p := New(be, 4, 256, nil)
	if p.PageSize() != 256 {
		t.Fatalf("page size = %d", p.PageSize())
	}

	h, now, err := p.NewPage(0, 10, core.Hint{ObjectID: 1})
	if err != nil {
		t.Fatal(err)
	}
	h.Data()[0] = 0xAA
	h.MarkDirty()
	if h.LPN() != 10 {
		t.Fatalf("handle LPN = %d", h.LPN())
	}
	h.Release()

	// The page is resident: fetch is a hit, no backend read.
	h2, _, err := p.Fetch(now, 10, core.Hint{ObjectID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if h2.Data()[0] != 0xAA {
		t.Fatal("data lost on re-fetch")
	}
	h2.Release()
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 0 || st.NewPages != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if be.reads != 0 {
		t.Fatal("hit caused a backend read")
	}
	// Flush, then evict everything via new pages; re-fetch must read from
	// the backend and still see the data.
	if _, err := p.FlushAll(now); err != nil {
		t.Fatal(err)
	}
	if be.writes != 1 {
		t.Fatalf("flush wrote %d pages", be.writes)
	}
	for i := 0; i < 8; i++ {
		h, _, err := p.NewPage(now, core.LPN(100+i), core.Hint{ObjectID: 2})
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	h3, _, err := p.Fetch(now, 10, core.Hint{ObjectID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if h3.Data()[0] != 0xAA {
		t.Fatal("data lost after eviction round trip")
	}
	h3.Release()
	st = p.Stats()
	if st.Misses != 1 || st.Evictions == 0 {
		t.Fatalf("stats after eviction: %+v", st)
	}
	if be.reads != 1 || be.writes < 2 {
		t.Fatalf("backend saw %d reads and %d writes, want the one miss and the flush plus evictions", be.reads, be.writes)
	}
	if st.HitRatio() <= 0 || st.HitRatio() >= 1 {
		t.Fatalf("hit ratio = %v", st.HitRatio())
	}
}

func TestPoolDirtyEvictionWritesBack(t *testing.T) {
	be := newMemBackend(128)
	p := New(be, 2, 128, nil)
	// Dirty two pages, then touch a third: one dirty page must be written
	// back to make room, and the caller's virtual time must advance by at
	// least the write latency.
	for i := 0; i < 2; i++ {
		h, _, err := p.NewPage(0, core.LPN(i+1), core.Hint{})
		if err != nil {
			t.Fatal(err)
		}
		h.Data()[0] = byte(i + 1)
		h.MarkDirty()
		h.Release()
	}
	h, done, err := p.NewPage(0, 3, core.Hint{})
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	if be.writes == 0 {
		t.Fatal("dirty eviction did not write back")
	}
	if done < sim.Time(be.writeLat) {
		t.Fatalf("eviction write-back not charged to caller: %v", done)
	}
	// The evicted page's data survives in the backend.
	st := p.Stats()
	if st.Writebacks == 0 || st.Evictions == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestPoolAllPinned(t *testing.T) {
	be := newMemBackend(128)
	p := New(be, 2, 128, nil)
	h1, _, err := p.NewPage(0, 1, core.Hint{})
	if err != nil {
		t.Fatal(err)
	}
	h2, _, err := p.NewPage(0, 2, core.Hint{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.NewPage(0, 3, core.Hint{}); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("want ErrPoolFull, got %v", err)
	}
	h1.Release()
	h2.Release()
	if h, _, err := p.NewPage(0, 3, core.Hint{}); err != nil {
		t.Fatalf("after release: %v", err)
	} else {
		h.Release()
	}
}

func TestPoolFetchErrorPropagates(t *testing.T) {
	be := newMemBackend(128)
	p := New(be, 2, 128, nil)
	if _, _, err := p.Fetch(0, 77, core.Hint{}); err == nil {
		t.Fatal("fetch of unknown page succeeded")
	}
	// The failed frame is reusable afterwards.
	h, _, err := p.NewPage(0, 1, core.Hint{})
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
}

func TestPoolFlushCleanAndDrop(t *testing.T) {
	be := newMemBackend(128)
	p := New(be, 4, 128, nil)
	h, _, err := p.NewPage(0, 9, core.Hint{})
	if err != nil {
		t.Fatal(err)
	}
	h.Data()[1] = 7
	h.MarkDirty()
	h.Release()
	if _, err := p.FlushAll(0); err != nil {
		t.Fatal(err)
	}
	if be.writes != 1 {
		t.Fatalf("writes = %d", be.writes)
	}
	// Flushing a clean pool is a no-op.
	if _, err := p.FlushAll(0); err != nil {
		t.Fatal(err)
	}
	if be.writes != 1 || be.batchWrites != 1 {
		t.Fatal("clean flush wrote")
	}
	p.Drop(9)
	if got := p.Stats().Resident; got != 0 {
		t.Fatalf("dropped page still resident (%d)", got)
	}
	p.Drop(12345) // dropping a non-resident page is a no-op
}

func TestPoolResetCounters(t *testing.T) {
	be := newMemBackend(128)
	p := New(be, 4, 128, nil)
	h, _, _ := p.NewPage(0, 1, core.Hint{})
	h.Release()
	if _, _, err := p.Fetch(0, 1, core.Hint{}); err != nil {
		t.Fatal(err)
	}
	p.ResetCounters()
	st := p.Stats()
	if st.Hits != 0 || st.Misses != 0 || st.NewPages != 0 {
		t.Fatalf("counters not reset: %+v", st)
	}
	if st.Resident == 0 {
		t.Fatal("reset dropped resident pages")
	}
}
