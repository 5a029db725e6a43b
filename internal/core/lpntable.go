package core

import "iter"

const (
	lpnChunk    = 4096         // entries an LPNTable adds at a time
	MaxTableLPN = LPN(1) << 32 // bounds the LPNs an LPNTable holds, and so its directory
)

// LPNTable is a dense table indexed by logical page number, for the space
// manager's LPN → physical page map and the buffer pool's LPN → frame map:
// LPNs are handed out consecutively, so an index beats a hash probe.  Entries
// live in chunks of lpnChunk, added one at a time and never moved; an LPN no
// chunk covers reads as absent (nil).
type LPNTable[V any] struct {
	dir []*[lpnChunk]V
}

// At returns the entry of lpn, or nil when no chunk covers it.
func (t *LPNTable[V]) At(lpn LPN) *V {
	if c := lpn / lpnChunk; uint64(c) < uint64(len(t.dir)) && t.dir[c] != nil {
		return &t.dir[c][lpn%lpnChunk]
	}
	return nil
}

// Slot returns the entry of lpn, adding the chunk that covers it if there is
// none.  lpn must be below MaxTableLPN.
func (t *LPNTable[V]) Slot(lpn LPN) *V {
	if e := t.At(lpn); e != nil {
		return e
	}
	c := int(lpn / lpnChunk)
	if c >= len(t.dir) {
		t.dir = append(t.dir, make([]*[lpnChunk]V, c+1-len(t.dir))...)
	}
	t.dir[c] = new([lpnChunk]V)
	return &t.dir[c][lpn%lpnChunk]
}

// All yields every entry of every chunk in LPN order, absent ones included.
func (t *LPNTable[V]) All() iter.Seq2[LPN, *V] {
	return func(yield func(LPN, *V) bool) {
		for c, chunk := range t.dir {
			for i := 0; chunk != nil && i < lpnChunk; i++ {
				if !yield(LPN(c*lpnChunk+i), &chunk[i]) {
					return
				}
			}
		}
	}
}
