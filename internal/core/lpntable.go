package core

import (
	"iter"
	"sync"
	"sync/atomic"
)

const (
	lpnChunk    = 4096         // entries an LPNTable adds at a time
	MaxTableLPN = LPN(1) << 32 // bounds the LPNs an LPNTable holds, and so its directory
)

// LPNTable is a dense table indexed by logical page number, for the space
// manager's LPN → physical page map and the buffer pool's LPN → frame map:
// LPNs are handed out consecutively, so an index beats a hash probe.  Entries
// live in chunks of lpnChunk, added one at a time and never moved; an LPN no
// chunk covers reads as absent (nil).  The owner serializes the accesses to
// each entry (the manager's mutex, a pool shard's mutex); adding a chunk
// publishes a longer copy of the directory atomically, so owners of other
// entries may read meanwhile.
type LPNTable[V any] struct {
	grow sync.Mutex // serializes adding chunks
	dir  atomic.Pointer[[]*[lpnChunk]V]
}

// chunks returns the current chunk directory.
func (t *LPNTable[V]) chunks() []*[lpnChunk]V {
	if d := t.dir.Load(); d != nil {
		return *d
	}
	return nil
}

// At returns the entry of lpn, or nil when no chunk covers it.
func (t *LPNTable[V]) At(lpn LPN) *V {
	if d := t.chunks(); uint64(lpn/lpnChunk) < uint64(len(d)) && d[lpn/lpnChunk] != nil {
		return &d[lpn/lpnChunk][lpn%lpnChunk]
	}
	return nil
}

// Slot returns the entry of lpn, adding the chunk that covers it if there is
// none.  lpn must be below MaxTableLPN.
func (t *LPNTable[V]) Slot(lpn LPN) *V {
	if e := t.At(lpn); e != nil {
		return e
	}
	t.grow.Lock()
	defer t.grow.Unlock()
	if e := t.At(lpn); e != nil { // another owner added it meanwhile
		return e
	}
	old := t.chunks()
	c := int(lpn / lpnChunk)
	d := make([]*[lpnChunk]V, max(len(old), c+1))
	copy(d, old)
	d[c] = new([lpnChunk]V)
	t.dir.Store(&d)
	return &d[c][lpn%lpnChunk]
}

// All yields every entry of every chunk in LPN order, absent ones included.
// The owner holds every entry's lock.
func (t *LPNTable[V]) All() iter.Seq2[LPN, *V] {
	return func(yield func(LPN, *V) bool) {
		for c, chunk := range t.chunks() {
			for i := 0; chunk != nil && i < lpnChunk; i++ {
				if !yield(LPN(c*lpnChunk+i), &chunk[i]) {
					return
				}
			}
		}
	}
}
