package buffer

import (
	"testing"

	"noftl/internal/core"
	"noftl/internal/sim"
)

func TestPoolGroupWriteBack(t *testing.T) {
	be := newMemBackend(128)
	p := New(be, 16, 128, nil)

	const n = 6
	for i := 1; i <= n; i++ {
		h, _, err := p.NewPage(0, core.LPN(i), core.Hint{ObjectID: 3})
		if err != nil {
			t.Fatal(err)
		}
		h.Data()[0] = byte(i)
		h.MarkDirty()
		h.Release()
	}
	done, err := p.FlushAll(0)
	if err != nil {
		t.Fatal(err)
	}
	// One batched dispatch covering all six pages, costing one write
	// latency of virtual time instead of six.
	if be.batchWrites != 1 {
		t.Errorf("batch write dispatches = %d, want 1", be.batchWrites)
	}
	if be.writes != n {
		t.Errorf("pages written = %d, want %d", be.writes, n)
	}
	if done != sim.Time(be.writeLat) {
		t.Errorf("group flush done at %v, want %v (overlapped)", done, sim.Time(be.writeLat))
	}
	st := p.Stats()
	if st.Writebacks != n || st.GroupFlushes != 1 || st.Dirty != 0 {
		t.Errorf("stats after group flush: %+v", st)
	}
	for i := 1; i <= n; i++ {
		if be.pages[core.LPN(i)][0] != byte(i) {
			t.Errorf("page %d content lost in group flush", i)
		}
	}
}

// TestFetchManyBatchesMissesAndSurvivesExhaustion covers the batched fetch
// path: all misses of one call go to the backend as a single ReadPages
// dispatch, and a call that exceeds the pool's frames fails cleanly — the
// staged frames are unwound (no held pins, no published garbage) so the
// same pages remain fetchable afterwards.
func TestFetchManyBatchesMissesAndSurvivesExhaustion(t *testing.T) {
	be := newMemBackend(128)
	be.seed(32)
	p := New(be, 8, 128, nil)

	// 6 distinct pages, one resident beforehand: one batch dispatch.
	h0, _, err := p.Fetch(0, 3, core.Hint{})
	if err != nil {
		t.Fatal(err)
	}
	h0.Release()
	readsBefore := be.batchReads
	lpns := []core.LPN{1, 2, 3, 4, 5, 6}
	handles, _, err := p.FetchMany(nil, 0, lpns, core.Hint{})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range handles {
		if h.Data()[0] != byte(lpns[i]) {
			t.Fatalf("page %d has wrong contents %d", lpns[i], h.Data()[0])
		}
		h.Release()
	}
	if got := be.batchReads - readsBefore; got != 1 {
		t.Fatalf("misses dispatched in %d batches, want 1", got)
	}

	// More distinct pages than frames: the call must fail with ErrPoolFull
	// without leaking pinned frames.
	big := make([]core.LPN, 0, 12)
	for i := 1; i <= 12; i++ {
		big = append(big, core.LPN(i))
	}
	if _, _, err := p.FetchMany(nil, 0, big, core.Hint{}); err == nil {
		t.Fatal("FetchMany over pool size succeeded")
	}
	// Every page is still individually fetchable (a leaked pin would exhaust
	// the pool).
	for _, lpn := range big {
		h, _, err := p.Fetch(0, lpn, core.Hint{})
		if err != nil {
			t.Fatalf("fetch %d after failed FetchMany: %v", lpn, err)
		}
		if h.Data()[0] != byte(lpn) {
			t.Fatalf("page %d corrupted after failed FetchMany", lpn)
		}
		h.Release()
	}
}

// TestFetchAndFetchManyOfOneAreOne checks that a single-page demand miss
// costs the same virtual time and moves the same counters whether it enters
// through Fetch or through a FetchMany of one.
func TestFetchAndFetchManyOfOneAreOne(t *testing.T) {
	type outcome struct {
		done  sim.Time
		stats Stats
		reads int
	}
	run := func(fetch func(p *Pool) (*Handle, sim.Time, error)) outcome {
		be := newMemBackend(128)
		be.seed(8)
		p := New(be, 2, 128, nil)
		// Fill both frames with dirty pages so the miss also pays an
		// eviction write-back.
		for _, lpn := range []core.LPN{1, 2} {
			h, _, err := p.Fetch(0, lpn, core.Hint{ObjectID: 4})
			if err != nil {
				t.Fatal(err)
			}
			h.MarkDirty()
			h.Release()
		}
		h, done, err := fetch(p)
		if err != nil {
			t.Fatal(err)
		}
		if h.LPN() != 5 || h.Data()[0] != 5 {
			t.Fatalf("fetched lpn %d with contents %d, want page 5", h.LPN(), h.Data()[0])
		}
		h.Release()
		return outcome{done: done, stats: p.Stats(), reads: be.reads}
	}
	single := run(func(p *Pool) (*Handle, sim.Time, error) {
		return p.Fetch(1000, 5, core.Hint{ObjectID: 4})
	})
	many := run(func(p *Pool) (*Handle, sim.Time, error) {
		hs, done, err := p.FetchMany(nil, 1000, []core.LPN{5}, core.Hint{ObjectID: 4})
		if err != nil {
			return nil, done, err
		}
		return hs[0], done, nil
	})
	if single != many {
		t.Fatalf("Fetch and FetchMany of one page differ:\n Fetch     %+v\n FetchMany %+v", single, many)
	}
	if single.stats.Misses != 3 || single.stats.Evictions != 1 || single.stats.Writebacks != 1 {
		t.Fatalf("miss did not evict a dirty page: %+v", single.stats)
	}
}

// TestFetchManyDuplicatesArePinsOfOneHandle fetches a page list with repeats
// over several shards, misses and residents mixed: a repeated page comes back
// as the same Handle, every position is one pin, and releasing each position
// once leaves no frame pinned.
func TestFetchManyDuplicatesArePinsOfOneHandle(t *testing.T) {
	be := newMemBackend(128)
	be.seed(16)
	p := New(be, 256, 128, nil) // 4 shards
	h, _, err := p.Fetch(0, 2, core.Hint{})
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	lpns := []core.LPN{2, 7, 2, 9, 7, 2}
	handles, _, err := p.FetchMany(nil, 0, lpns, core.Hint{})
	if err != nil {
		t.Fatal(err)
	}
	pins := map[*Handle]int{}
	for i, h := range handles {
		if h.LPN() != lpns[i] {
			t.Fatalf("position %d holds page %d, want %d", i, h.LPN(), lpns[i])
		}
		pins[h]++
	}
	if len(pins) != 3 {
		t.Fatalf("%d distinct handles for 3 distinct pages", len(pins))
	}
	for h, n := range pins {
		if h.frame.pins != n {
			t.Fatalf("page %d has %d pins, want %d", h.LPN(), h.frame.pins, n)
		}
	}
	for _, h := range handles {
		h.Release()
	}
	for h := range pins {
		if h.frame.pins != 0 {
			t.Fatalf("page %d keeps %d pins after every position was released", h.LPN(), h.frame.pins)
		}
	}
}

// TestResidentFetchesAllocateNothing gates the hit path: a pin of a resident
// page hands out the frame's own Handle, so Fetch + Release allocates nothing,
// and so does a FetchMany of resident pages into a slice with room.
func TestResidentFetchesAllocateNothing(t *testing.T) {
	be := newMemBackend(128)
	be.seed(8)
	p := New(be, 256, 128, nil) // 4 shards
	lpns := []core.LPN{1, 2, 3, 4, 5, 6, 7, 8}
	hs, _, err := p.FetchMany(nil, 0, lpns, core.Hint{})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hs {
		h.Release()
	}
	if n := testing.AllocsPerRun(100, func() {
		h, _, err := p.Fetch(0, 3, core.Hint{ObjectID: 1})
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}); n != 0 {
		t.Errorf("a buffer-pool hit allocates %v times, want 0", n)
	}
	dst := make([]*Handle, 0, len(lpns))
	if n := testing.AllocsPerRun(100, func() {
		hs, _, err := p.FetchMany(dst, 0, lpns, core.Hint{ObjectID: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range hs {
			h.Release()
		}
	}); n != 0 {
		t.Errorf("a FetchMany of resident pages into a slice with room allocates %v times, want 0", n)
	}
}
