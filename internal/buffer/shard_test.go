package buffer

import (
	"errors"
	"sync"
	"testing"

	"noftl/internal/core"
	"noftl/internal/sim"
)

func TestAutoShards(t *testing.T) {
	cases := []struct{ frames, want int }{
		{2, 1}, {32, 1}, {63, 1}, {64, 1}, {128, 2}, {256, 4},
		{512, 8}, {1024, 16}, {2048, 16}, {100000, 16},
	}
	for _, c := range cases {
		if got := autoShards(c.frames); got != c.want {
			t.Errorf("autoShards(%d) = %d, want %d", c.frames, got, c.want)
		}
	}
}

// TestPoolShardedEvictionUnderContention drives many goroutines through a
// multi-shard pool far smaller than the page working set, so every shard
// constantly evicts (including dirty write-backs) while other workers fetch,
// modify and flush.  Run under -race this exercises the shard mutex / frame
// latch interplay of the sharded CLOCK.  A concurrent FlushAll pins every
// dirty frame while its batch is in flight, so a fetch may transiently find
// its whole shard pinned; the workers just move on.
func TestPoolShardedEvictionUnderContention(t *testing.T) {
	be := newMemBackend(128)
	const pages = 4096
	be.seed(pages)
	p := New(be, 512, 128, nil)
	if got := len(p.shards); got != 8 {
		t.Fatalf("shards = %d, want 8", got)
	}

	const workers = 8
	const opsPerWorker = 2000
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			r := sim.NewRand(uint64(seed + 1))
			now := sim.Time(0)
			for i := 0; i < opsPerWorker; i++ {
				switch r.Intn(10) {
				case 0: // occasional batched fetch
					lo := core.LPN(r.Intn(pages-8) + 1)
					lpns := []core.LPN{lo, lo + 1, lo + 2, lo + 3}
					hs, done, err := p.FetchMany(now, lpns, core.Hint{})
					if errors.Is(err, ErrPoolFull) {
						continue
					}
					if err != nil {
						errCh <- err
						return
					}
					now = done
					for _, h := range hs {
						h.RLock()
						_ = h.Data()[0]
						h.RUnlock()
						h.Release()
					}
				case 1: // concurrent group write-back
					if done, err := p.FlushAll(now); err != nil {
						errCh <- err
						return
					} else {
						now = done
					}
				default:
					lpn := core.LPN(r.Intn(pages) + 1)
					h, done, err := p.Fetch(now, lpn, core.Hint{})
					if errors.Is(err, ErrPoolFull) {
						continue
					}
					if err != nil {
						errCh <- err
						return
					}
					now = done
					h.Lock()
					h.Data()[1]++
					h.MarkDirty()
					h.Unlock()
					h.Release()
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if _, err := p.FlushAll(0); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Evictions == 0 || st.Writebacks == 0 {
		t.Fatalf("contention run did not evict/write back: %+v", st)
	}
	if st.Dirty != 0 {
		t.Fatalf("dirty pages remain after FlushAll: %d", st.Dirty)
	}
	// No pins may leak: every page must be evictable now.
	for i := 1; i <= pages; i++ {
		p.Drop(core.LPN(i))
	}
	if got := p.Stats().Resident; got != 0 {
		t.Fatalf("leaked pins kept %d pages resident after Drop of everything", got)
	}
}
