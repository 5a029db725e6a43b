package buffer

import (
	"errors"
	"testing"

	"noftl/internal/core"
)

// TestClaimTakesLowestInvalidFrame pins the victim choice a miss makes while
// a shard has frames that hold no page: the lowest-index one that is not
// pinned, before any CLOCK sweep.  Eviction order, and with it every
// simulated number above the pool, depends on it.
func TestClaimTakesLowestInvalidFrame(t *testing.T) {
	be := newMemBackend(128)
	be.seed(16)
	p := New(be, 8, 128, nil) // one shard
	s := p.shards[0]
	for lpn := core.LPN(1); lpn <= 8; lpn++ {
		h, _, err := p.Fetch(0, lpn, core.Hint{})
		if err != nil {
			t.Fatal(err)
		}
		if h.frame != s.frames[lpn-1] {
			t.Fatalf("lpn %d landed in frame %d of an empty pool, want %d", lpn, h.frame.idx, lpn-1)
		}
		h.Release()
	}
	// Empty frames 5 and 2, and pin frame 2 as a concurrent Fetch of a page
	// whose read failed would.
	p.Drop(6)
	p.Drop(3)
	s.frames[2].pins++
	want := []int{5, 2}
	for i, lpn := range []core.LPN{9, 10} {
		h, _, err := p.Fetch(0, lpn, core.Hint{})
		if err != nil {
			t.Fatal(err)
		}
		if h.frame != s.frames[want[i]] {
			t.Fatalf("lpn %d landed in frame %d, want %d", lpn, h.frame.idx, want[i])
		}
		h.Release()
		if i == 0 {
			s.frames[2].pins--
		}
	}
	if ev := p.Stats().Evictions; ev != 0 {
		t.Fatalf("%d evictions while frames held no page", ev)
	}
	// Full: the CLOCK sweep clears every reference bit and takes the frame
	// under the hand.
	h, _, err := p.Fetch(0, 11, core.Hint{})
	if err != nil {
		t.Fatal(err)
	}
	if h.frame != s.frames[0] {
		t.Fatalf("the first eviction took frame %d, want 0", h.frame.idx)
	}
	h.Release()
}

// TestFetchBeyondTheTableFails: an LPN from outside the program (a row ID a
// caller made up) past what the table holds is an unmapped page, not a
// directory of millions of chunks.
func TestFetchBeyondTheTableFails(t *testing.T) {
	p := New(newMemBackend(128), 8, 128, nil)
	for _, lpn := range []core.LPN{core.MaxTableLPN, 1<<64 - 1} {
		if _, _, err := p.Fetch(0, lpn, core.Hint{}); !errors.Is(err, core.ErrUnmappedPage) {
			t.Fatalf("Fetch(%d): want ErrUnmappedPage, got %v", lpn, err)
		}
	}
	if st := p.Stats(); st.Resident != 0 || st.Evictions != 0 {
		t.Fatalf("a refused fetch left %d pages resident and %d evictions", st.Resident, st.Evictions)
	}
}

// BenchmarkFetchHit pins and releases resident pages of a sharded pool, the
// buffer pool's share of every page access that hits.
func BenchmarkFetchHit(b *testing.B) {
	const pages = 1024
	be := newMemBackend(128)
	be.seed(pages)
	p := New(be, 2*pages, 128, nil)
	for lpn := core.LPN(1); lpn <= pages; lpn++ {
		h, _, err := p.Fetch(0, lpn, core.Hint{})
		if err != nil {
			b.Fatal(err)
		}
		h.Release()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, _, err := p.Fetch(0, core.LPN(i%pages+1), core.Hint{})
		if err != nil {
			b.Fatal(err)
		}
		h.Release()
	}
}
