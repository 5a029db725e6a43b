// Package btree implements a B+-tree index stored in slotted buffer-pool
// pages, the secondary-index structure used by the TPC-C schema of the
// reproduction.
//
// Keys are arbitrary byte strings compared lexicographically (use KeyBuilder
// to build order-preserving composite keys); values are small byte strings
// (record identifiers).  Leaf nodes are chained left-to-right for range
// scans.  Deletes remove entries without rebalancing (nodes may underflow;
// space is reclaimed when the node is compacted or split), which is a
// standard simplification for workload studies (README.md, "Architecture",
// places the package in the stack).
package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"noftl/internal/buffer"
	"noftl/internal/core"
	"noftl/internal/sim"
	"noftl/internal/storage"
)

// Errors returned by the tree.
var (
	// ErrKeyTooLarge reports a key+value pair that cannot fit into a node.
	ErrKeyTooLarge = errors.New("btree: key/value too large for a node")
	// ErrNotFound reports a missing key on Get or Delete.
	ErrNotFound = errors.New("btree: key not found")
)

// Node layout constants (within a storage slotted-page buffer, after the
// common page header).
const (
	nodeHdrOff   = storage.PageHeaderSize
	offFlags     = nodeHdrOff + 0
	offNumKeys   = nodeHdrOff + 2
	offRight     = nodeHdrOff + 4  // leaf: right sibling LPN; internal: rightmost child LPN
	offCellEnd   = nodeHdrOff + 12 // lowest byte used by cell data
	nodeHdrSize  = 16
	offsArrayOff = nodeHdrOff + nodeHdrSize
	flagLeaf     = 1
)

// Tree is a B+-tree.  It is not safe for concurrent use.
type Tree struct {
	name     string
	objectID uint32
	ts       *storage.Tablespace
	pool     *buffer.Pool
	root     core.LPN
	height   int
	entries  int64
	pages    int64
	lpns     []core.LPN // every page ever allocated to the tree, in order
	scratch  []byte     // page snapshot that compaction and splits rebuild from
}

// allocPage allocates a page from the tablespace and remembers it in the
// tree's page list (used by DROP INDEX to trim the tree's pages on flash).
func (t *Tree) allocPage() core.LPN {
	lpn := t.ts.AllocatePage()
	t.lpns = append(t.lpns, lpn)
	return lpn
}

// PageList returns a copy of every page allocated to the tree.
func (t *Tree) PageList() []core.LPN {
	out := make([]core.LPN, len(t.lpns))
	copy(out, t.lpns)
	return out
}

// New creates an empty tree for the object in the tablespace.  The root leaf
// page is allocated immediately.
func New(now sim.Time, name string, objectID uint32, ts *storage.Tablespace, pool *buffer.Pool) (*Tree, sim.Time, error) {
	t := &Tree{name: name, objectID: objectID, ts: ts, pool: pool, height: 1}
	lpn := t.allocPage()
	h, done, err := pool.NewPage(now, lpn, t.hint())
	if err != nil {
		return nil, done, err
	}
	initNode(h.Data(), objectID, uint64(lpn), true)
	h.MarkDirty()
	h.Release()
	t.root = lpn
	t.pages = 1
	return t, done, nil
}

// Attach returns the tree over pages that already exist on flash: the root,
// height, entry count and page list a checkpoint recorded.  Nothing is read or
// written.
func Attach(name string, objectID uint32, ts *storage.Tablespace, pool *buffer.Pool, root core.LPN, height int, entries int64, pages []core.LPN) *Tree {
	return &Tree{name: name, objectID: objectID, ts: ts, pool: pool,
		root: root, height: height, entries: entries, pages: int64(len(pages)), lpns: pages}
}

// Name returns the index name.
func (t *Tree) Name() string { return t.name }

// Root returns the logical page of the root node.
func (t *Tree) Root() core.LPN {
	return t.root
}

// ObjectID returns the owning object id.
func (t *Tree) ObjectID() uint32 { return t.objectID }

// Entries returns the number of key/value pairs in the tree.
func (t *Tree) Entries() int64 {
	return t.entries
}

// Pages returns the number of pages allocated to the tree.
func (t *Tree) Pages() int64 {
	return t.pages
}

// Height returns the current tree height (1 = a single leaf).
func (t *Tree) Height() int {
	return t.height
}

func (t *Tree) hint() core.Hint {
	return t.ts.Hint(t.objectID, 0)
}

// ---- node accessors (operate on the raw page buffer) ----

func initNode(buf []byte, objectID uint32, lpn uint64, leaf bool) {
	pt := storage.PageTypeBTreeNode
	if leaf {
		pt = storage.PageTypeBTreeLeaf
	}
	storage.InitPage(buf, pt, objectID, lpn)
	var flags uint16
	if leaf {
		flags = flagLeaf
	}
	binary.LittleEndian.PutUint16(buf[offFlags:], flags)
	binary.LittleEndian.PutUint16(buf[offNumKeys:], 0)
	binary.LittleEndian.PutUint64(buf[offRight:], 0)
	binary.LittleEndian.PutUint16(buf[offCellEnd:], uint16(len(buf)))
}

func nodeIsLeaf(buf []byte) bool {
	return binary.LittleEndian.Uint16(buf[offFlags:])&flagLeaf != 0
}

func nodeNumKeys(buf []byte) int {
	return int(binary.LittleEndian.Uint16(buf[offNumKeys:]))
}

func setNodeNumKeys(buf []byte, n int) {
	binary.LittleEndian.PutUint16(buf[offNumKeys:], uint16(n))
}

func nodeRight(buf []byte) uint64 {
	return binary.LittleEndian.Uint64(buf[offRight:])
}

func setNodeRight(buf []byte, v uint64) {
	binary.LittleEndian.PutUint64(buf[offRight:], v)
}

func cellEnd(buf []byte) int {
	return int(binary.LittleEndian.Uint16(buf[offCellEnd:]))
}

func setCellEnd(buf []byte, v int) {
	binary.LittleEndian.PutUint16(buf[offCellEnd:], uint16(v))
}

func offsPos(i int) int { return offsArrayOff + 2*i }

func cellOffset(buf []byte, i int) int {
	return int(binary.LittleEndian.Uint16(buf[offsPos(i):]))
}

func setCellOffset(buf []byte, i, off int) {
	binary.LittleEndian.PutUint16(buf[offsPos(i):], uint16(off))
}

// cellAt returns the key and value of entry i.
func cellAt(buf []byte, i int) (key, val []byte) {
	off := cellOffset(buf, i)
	klen := int(binary.LittleEndian.Uint16(buf[off:]))
	vlen := int(binary.LittleEndian.Uint16(buf[off+2:]))
	key = buf[off+4 : off+4+klen]
	val = buf[off+4+klen : off+4+klen+vlen]
	return key, val
}

// freeBytes returns the contiguous free space between the offsets array and
// the cell area.
func freeBytes(buf []byte) int {
	return cellEnd(buf) - (offsArrayOff + 2*nodeNumKeys(buf))
}

// liveBytes returns the bytes occupied by live cells plus their offset
// entries.
func liveBytes(buf []byte) int {
	total := 0
	for i := 0; i < nodeNumKeys(buf); i++ {
		off := cellOffset(buf, i)
		klen := int(binary.LittleEndian.Uint16(buf[off:]))
		vlen := int(binary.LittleEndian.Uint16(buf[off+2:]))
		total += 4 + klen + vlen + 2
	}
	return total
}

// search returns the index of the first entry whose key is >= key, and
// whether an exact match exists at that index.
func search(buf []byte, key []byte) (int, bool) {
	lo, hi := 0, nodeNumKeys(buf)
	found := false
	for lo < hi {
		mid := (lo + hi) / 2
		k, _ := cellAt(buf, mid)
		switch bytes.Compare(k, key) {
		case -1:
			lo = mid + 1
		case 0:
			hi = mid
			found = true
		case 1:
			hi = mid
		}
	}
	return lo, found
}

// searchUpper returns the index of the first entry whose key is strictly
// greater than key (upper bound).  Internal nodes route with it: the entry
// (K, C) at that index is the child covering all keys < K.
func searchUpper(buf []byte, key []byte) int {
	lo, hi := 0, nodeNumKeys(buf)
	for lo < hi {
		mid := (lo + hi) / 2
		k, _ := cellAt(buf, mid)
		if bytes.Compare(k, key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// putCell writes the cell key/val so that it ends at end and returns where it
// starts.
func putCell(buf []byte, end int, key, val []byte) int {
	off := end - 4 - len(key) - len(val)
	binary.LittleEndian.PutUint16(buf[off:], uint16(len(key)))
	binary.LittleEndian.PutUint16(buf[off+2:], uint16(len(val)))
	copy(buf[off+4:], key)
	copy(buf[off+4+len(key):], val)
	return off
}

// insertCell inserts key/val at position i, assuming it fits.
func insertCell(buf []byte, i int, key, val []byte) {
	n := nodeNumKeys(buf)
	newEnd := putCell(buf, cellEnd(buf), key, val)
	setCellEnd(buf, newEnd)
	// Shift the offsets array right of position i.
	copy(buf[offsPos(i+1):offsPos(n+1)], buf[offsPos(i):offsPos(n)])
	setCellOffset(buf, i, newEnd)
	setNodeNumKeys(buf, n+1)
}

// removeCell removes entry i (the cell bytes are leaked until compaction).
func removeCell(buf []byte, i int) {
	n := nodeNumKeys(buf)
	copy(buf[offsPos(i):offsPos(n-1)], buf[offsPos(i+1):offsPos(n)])
	setNodeNumKeys(buf, n-1)
}

// replaceCellValue overwrites the value of entry i when the new value has
// the same length; otherwise it removes and reinserts the cell.  It reports
// false when the cell no longer fits; the entry is then gone.
func (t *Tree) replaceCellValue(buf []byte, i int, key, val []byte) bool {
	off := cellOffset(buf, i)
	klen := int(binary.LittleEndian.Uint16(buf[off:]))
	vlen := int(binary.LittleEndian.Uint16(buf[off+2:]))
	if vlen == len(val) {
		copy(buf[off+4+klen:], val)
		return true
	}
	removeCell(buf, i)
	if freeBytes(buf) < 4+len(key)+len(val)+2 {
		t.compactNode(buf)
	}
	if freeBytes(buf) < 4+len(key)+len(val)+2 {
		return false
	}
	pos, _ := search(buf, key)
	insertCell(buf, pos, key, val)
	return true
}

// snapshot copies the page into the tree's scratch buffer, which compaction
// and splits rebuild a node from.
func (t *Tree) snapshot(buf []byte) []byte {
	if len(t.scratch) != len(buf) {
		t.scratch = make([]byte, len(buf))
	}
	copy(t.scratch, buf)
	return t.scratch
}

// compactNode rewrites the cell area dropping leaked space.
func (t *Tree) compactNode(buf []byte) {
	snap := t.snapshot(buf)
	end := len(buf)
	for i := nodeNumKeys(snap) - 1; i >= 0; i-- {
		k, v := cellAt(snap, i)
		end = putCell(buf, end, k, v)
		setCellOffset(buf, i, end)
	}
	setCellEnd(buf, end)
}

// childLPN decodes an internal-node value into a child page number.
func childLPN(val []byte) core.LPN {
	return core.LPN(binary.LittleEndian.Uint64(val))
}

func encodeChild(lpn core.LPN) []byte {
	out := make([]byte, 8)
	binary.LittleEndian.PutUint64(out, uint64(lpn))
	return out
}

// ---- tree operations ----

// Get returns a copy of the value stored under key.
func (t *Tree) Get(now sim.Time, key []byte) ([]byte, sim.Time, bool, error) {
	return t.GetAppend(now, key, nil)
}

// GetAppend is Get appending the value to dst: a caller that only decodes the
// value passes a buffer of its own, and the lookup allocates nothing.
func (t *Tree) GetAppend(now sim.Time, key, dst []byte) ([]byte, sim.Time, bool, error) {
	lpn := t.root
	for {
		h, done, err := t.pool.Fetch(now, lpn, t.hint())
		if err != nil {
			return nil, done, false, err
		}
		now = done
		buf := h.Data()
		if nodeIsLeaf(buf) {
			i, found := search(buf, key)
			if found {
				_, v := cellAt(buf, i)
				dst = append(dst, v...)
			}
			h.Release()
			return dst, now, found, nil
		}
		lpn = t.descend(buf, key)
		h.Release()
	}
}

// descend picks the child to follow for key in an internal node.  Each
// entry (K, C) routes keys strictly below K to C; the rightmost pointer
// covers everything at or above the last separator.
func (t *Tree) descend(buf []byte, key []byte) core.LPN {
	i := searchUpper(buf, key)
	if i < nodeNumKeys(buf) {
		_, v := cellAt(buf, i)
		return childLPN(v)
	}
	return core.LPN(nodeRight(buf))
}

// Insert stores value under key, replacing any previous value (upsert).
func (t *Tree) Insert(now sim.Time, key, value []byte) (sim.Time, error) {
	if len(key)+len(value)+4 > t.pool.PageSize()/4 {
		return now, fmt.Errorf("%w: %d bytes", ErrKeyTooLarge, len(key)+len(value))
	}
	sep, newChild, done, replaced, err := t.insertInto(now, t.root, key, value)
	if err != nil {
		return done, err
	}
	now = done
	if !replaced {
		t.entries++
	}
	if newChild != 0 {
		// Root split: create a new root with two children.
		newRootLPN := t.allocPage()
		h, d, err := t.pool.NewPage(now, newRootLPN, t.hint())
		if err != nil {
			return d, err
		}
		now = d
		buf := h.Data()
		initNode(buf, t.objectID, uint64(newRootLPN), false)
		insertCell(buf, 0, sep, encodeChild(t.root))
		setNodeRight(buf, uint64(newChild))
		h.MarkDirty()
		h.Release()
		t.root = newRootLPN
		t.height++
		t.pages++
	}
	return now, nil
}

// insertInto inserts into the subtree rooted at lpn.  When the node splits it
// returns the separator key and the new right sibling's LPN.
func (t *Tree) insertInto(now sim.Time, lpn core.LPN, key, value []byte) (sep []byte, newChild core.LPN, done sim.Time, replaced bool, err error) {
	h, done, err := t.pool.Fetch(now, lpn, t.hint())
	if err != nil {
		return nil, 0, done, false, err
	}
	now = done
	buf := h.Data()

	if nodeIsLeaf(buf) {
		i, found := search(buf, key)
		if found {
			if t.replaceCellValue(buf, i, key, value) {
				h.MarkDirty()
				h.Release()
				return nil, 0, now, true, nil
			}
			// fall through to split handling below by reinserting
		}
		need := 4 + len(key) + len(value) + 2
		if freeBytes(buf) < need && liveBytes(buf)+need <= len(buf)-offsArrayOff {
			t.compactNode(buf)
		}
		if freeBytes(buf) >= need {
			pos, _ := search(buf, key)
			insertCell(buf, pos, key, value)
			h.MarkDirty()
			h.Release()
			return nil, 0, now, found, nil
		}
		sep, newChild, now, err = t.split(now, h, buf, key, value, 0)
		h.Release()
		return sep, newChild, now, found, err
	}

	child := t.descend(buf, key)
	childSep, childNew, now, replaced, err := t.insertInto(now, child, key, value)
	if err != nil {
		h.Release()
		return nil, 0, now, replaced, err
	}
	if childNew == 0 {
		h.Release()
		return nil, 0, now, replaced, nil
	}
	// Insert the separator for the new child into this node.
	buf = h.Data()
	need := 4 + len(childSep) + 8 + 2
	if freeBytes(buf) < need && liveBytes(buf)+need <= len(buf)-offsArrayOff {
		t.compactNode(buf)
	}
	if freeBytes(buf) >= need {
		pos := searchUpper(buf, childSep)
		routeTo(buf, pos, childNew)
		insertCell(buf, pos, childSep, encodeChild(child))
		h.MarkDirty()
		h.Release()
		return nil, 0, now, replaced, nil
	}
	sep, newChild, now, err = t.split(now, h, buf, childSep, encodeChild(child), childNew)
	h.Release()
	return sep, newChild, now, replaced, err
}

// routeTo points the entry at pos of an internal node (past the last entry,
// the rightmost pointer) at child.  A child that split is the old child's
// right half: the separator inserted at pos routes the keys below it to the
// old child, and the pointer that covered them all now covers the rest.
func routeTo(buf []byte, pos int, child core.LPN) {
	if pos < nodeNumKeys(buf) {
		_, v := cellAt(buf, pos)
		binary.LittleEndian.PutUint64(v, uint64(child))
		return
	}
	setNodeRight(buf, uint64(child))
}

// split divides a full node, pinned by h, that has no room for the
// entry key/val.  The entries, key/val's included, are read from one snapshot
// of the page: the lower half is rewritten in place and the upper half goes
// to a new right sibling.  It returns the separator for the parent and the
// sibling's LPN.  In an internal node newChild is the right half of the child
// that split (see routeTo), and the middle entry moves up instead of staying
// in the sibling.  The caller releases h.
func (t *Tree) split(now sim.Time, h *buffer.Handle, buf, key, val []byte, newChild core.LPN) ([]byte, core.LPN, sim.Time, error) {
	leaf := nodeIsLeaf(buf)
	snap := t.snapshot(buf)
	pos := searchUpper(snap, key) // key is not in snap, so this is its place
	if !leaf {
		routeTo(snap, pos, newChild)
	}
	entry := func(j int) ([]byte, []byte) {
		switch {
		case j < pos:
			return cellAt(snap, j)
		case j == pos:
			return key, val
		}
		return cellAt(snap, j-1)
	}
	n := nodeNumKeys(snap) + 1
	mid := n / 2
	sepKey, sepVal := entry(mid)
	from := mid
	if !leaf {
		from++
	}

	rightLPN := t.allocPage()
	rh, done, err := t.pool.NewPage(now, rightLPN, t.hint())
	if err != nil {
		return nil, 0, done, err
	}
	now = done
	rbuf := rh.Data()
	initNode(rbuf, t.objectID, uint64(rightLPN), leaf)
	for j := from; j < n; j++ {
		k, v := entry(j)
		insertCell(rbuf, j-from, k, v)
	}
	setNodeRight(rbuf, nodeRight(snap))
	rh.MarkDirty()
	rh.Release()

	initNode(buf, storage.PageObjectID(snap), storage.PageLPN(snap), leaf)
	for j := 0; j < mid; j++ {
		k, v := entry(j)
		insertCell(buf, j, k, v)
	}
	if leaf {
		setNodeRight(buf, uint64(rightLPN))
	} else {
		setNodeRight(buf, uint64(childLPN(sepVal)))
	}
	h.MarkDirty()

	t.pages++
	return append([]byte(nil), sepKey...), rightLPN, now, nil
}

// Delete removes key from the tree.
func (t *Tree) Delete(now sim.Time, key []byte) (sim.Time, error) {
	lpn := t.root
	for {
		h, done, err := t.pool.Fetch(now, lpn, t.hint())
		if err != nil {
			return done, err
		}
		now = done
		buf := h.Data()
		if nodeIsLeaf(buf) {
			i, found := search(buf, key)
			if !found {
				h.Release()
				return now, fmt.Errorf("%w: delete", ErrNotFound)
			}
			removeCell(buf, i)
			h.MarkDirty()
			h.Release()
			t.entries--
			return now, nil
		}
		next := t.descend(buf, key)
		h.Release()
		lpn = next
	}
}

// Scan iterates over all entries with startKey <= key < endKey in ascending
// order (a nil endKey means "until the end of the index").  fn returning
// false stops the scan.  The key and value fn receives alias the pinned leaf
// page: they are valid only until fn returns, so fn copies what it keeps.
func (t *Tree) Scan(now sim.Time, startKey, endKey []byte, fn func(key, value []byte) bool) (sim.Time, error) {
	// Descend to the leaf containing startKey.
	lpn := t.root
	for {
		h, done, err := t.pool.Fetch(now, lpn, t.hint())
		if err != nil {
			return done, err
		}
		now = done
		buf := h.Data()
		if nodeIsLeaf(buf) {
			h.Release()
			break
		}
		next := t.descend(buf, startKey)
		h.Release()
		lpn = next
	}
	// Walk the leaf chain.
	for lpn != 0 {
		h, done, err := t.pool.Fetch(now, lpn, t.hint())
		if err != nil {
			return done, err
		}
		now = done
		buf := h.Data()
		n := nodeNumKeys(buf)
		i, _ := search(buf, startKey)
		stop := false
		for ; i < n; i++ {
			k, v := cellAt(buf, i)
			if endKey != nil && bytes.Compare(k, endKey) >= 0 {
				stop = true
				break
			}
			if !fn(k, v) {
				stop = true
				break
			}
		}
		next := core.LPN(nodeRight(buf))
		h.Release()
		if stop {
			return now, nil
		}
		lpn = next
		// After the first leaf every key qualifies, so scan from the start.
		startKey = nil
	}
	return now, nil
}

// ScanPrefix iterates over all entries whose key starts with prefix.
func (t *Tree) ScanPrefix(now sim.Time, prefix []byte, fn func(key, value []byte) bool) (sim.Time, error) {
	var buf [64]byte // holds the end key of any prefix a caller builds
	return t.Scan(now, prefix, prefixEnd(buf[:0], prefix), fn)
}

// prefixEnd builds in dst the smallest key greater than every key with the
// given prefix, or returns nil if no such key exists (all 0xFF).
func prefixEnd(dst, prefix []byte) []byte {
	end := append(dst, prefix...)
	for i := len(end) - 1; i >= 0; i-- {
		if end[i] != 0xFF {
			end[i]++
			return end[:i+1]
		}
	}
	return nil
}

// KeyBuilder builds order-preserving composite keys out of integers and
// strings (big-endian integers, strings terminated with a 0 byte).
type KeyBuilder struct {
	buf []byte
}

// NewKeyBuilder returns an empty builder.
func NewKeyBuilder() *KeyBuilder { return &KeyBuilder{} }

// AddUint32 appends a 32-bit component.
func (k *KeyBuilder) AddUint32(v uint32) *KeyBuilder {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	k.buf = append(k.buf, b[:]...)
	return k
}

// AddUint64 appends a 64-bit component.
func (k *KeyBuilder) AddUint64(v uint64) *KeyBuilder {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	k.buf = append(k.buf, b[:]...)
	return k
}

// AddString appends a string component terminated by a zero byte.
func (k *KeyBuilder) AddString(s string) *KeyBuilder {
	k.buf = append(k.buf, s...)
	k.buf = append(k.buf, 0)
	return k
}

// Bytes returns the composite key.
func (k *KeyBuilder) Bytes() []byte { return k.buf }

// Key is a convenience for building a key of uint32 components.
func Key(parts ...uint32) []byte { return AppendKey(make([]byte, 0, 4*len(parts)), parts...) }

// AppendKey appends the key Key(parts...) builds to dst.
func AppendKey(dst []byte, parts ...uint32) []byte {
	for _, p := range parts {
		dst = binary.BigEndian.AppendUint32(dst, p)
	}
	return dst
}
