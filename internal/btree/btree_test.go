package btree

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"noftl/internal/buffer"
	"noftl/internal/core"
	"noftl/internal/flash"
	"noftl/internal/sim"
	"noftl/internal/storage"
)

func testTree(t *testing.T, frames int, pageSize int) (*Tree, *core.Manager, *buffer.Pool) {
	t.Helper()
	cfg := flash.DefaultConfig()
	cfg.Geometry = flash.Geometry{
		Channels: 2, DiesPerChannel: 2, PlanesPerDie: 1,
		BlocksPerDie: 256, PagesPerBlock: 32, PageSize: pageSize,
	}
	dev, err := flash.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mgr := core.NewManager(dev, core.DefaultOptions())
	pool := buffer.New(mgr, frames, pageSize, nil)
	ts := storage.NewTablespace("tsIdx", core.DefaultRegionID, 16, mgr)
	tree, _, err := New(0, "IDX", 5, ts, pool)
	if err != nil {
		t.Fatal(err)
	}
	return tree, mgr, pool
}

func TestTreeBasicInsertGet(t *testing.T) {
	tree, _, _ := testTree(t, 64, 512)
	if tree.Name() != "IDX" || tree.ObjectID() != 5 {
		t.Fatal("identity wrong")
	}
	now := sim.Time(0)
	for i := 0; i < 100; i++ {
		done, err := tree.Insert(now, Key(uint32(i)), []byte(fmt.Sprintf("v%03d", i)))
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		now = done
	}
	if tree.Entries() != 100 {
		t.Fatalf("entries = %d", tree.Entries())
	}
	for i := 0; i < 100; i++ {
		v, done, found, err := tree.Get(now, Key(uint32(i)))
		if err != nil || !found {
			t.Fatalf("get %d: found=%v err=%v", i, found, err)
		}
		now = done
		if string(v) != fmt.Sprintf("v%03d", i) {
			t.Fatalf("get %d = %q", i, v)
		}
	}
	// Missing key.
	if _, _, found, err := tree.Get(now, Key(12345)); err != nil || found {
		t.Fatalf("missing key: found=%v err=%v", found, err)
	}
	// Upsert replaces.
	if _, err := tree.Insert(now, Key(7), []byte("NEW")); err != nil {
		t.Fatal(err)
	}
	if tree.Entries() != 100 {
		t.Fatalf("upsert changed entry count: %d", tree.Entries())
	}
	v, _, _, _ := tree.Get(now, Key(7))
	if string(v) != "NEW" {
		t.Fatalf("upsert lost: %q", v)
	}
	// Upsert with a different value size.
	if _, err := tree.Insert(now, Key(7), []byte("an even longer replacement value")); err != nil {
		t.Fatal(err)
	}
	v, _, _, _ = tree.Get(now, Key(7))
	if string(v) != "an even longer replacement value" {
		t.Fatalf("resize upsert lost: %q", v)
	}
}

func TestTreeSplitsGrowHeight(t *testing.T) {
	tree, _, _ := testTree(t, 128, 512)
	now := sim.Time(0)
	const n = 2000
	for i := 0; i < n; i++ {
		done, err := tree.Insert(now, Key(uint32(i)), storage.RID{LPN: uint64(i), Slot: uint16(i % 100)}.Encode())
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		now = done
	}
	if tree.Height() < 2 {
		t.Fatalf("tree never split: height=%d pages=%d", tree.Height(), tree.Pages())
	}
	if tree.Pages() < 10 {
		t.Fatalf("too few pages: %d", tree.Pages())
	}
	// Every key still retrievable after splits.
	for i := 0; i < n; i++ {
		v, done, found, err := tree.Get(now, Key(uint32(i)))
		if err != nil || !found {
			t.Fatalf("get %d after splits: %v", i, err)
		}
		now = done
		rid, err := storage.DecodeRID(v)
		if err != nil || rid.LPN != uint64(i) {
			t.Fatalf("value %d corrupted: %+v", i, rid)
		}
	}
}

func TestTreeRandomOrderInsert(t *testing.T) {
	tree, _, _ := testTree(t, 128, 512)
	r := sim.NewRand(99)
	perm := r.Perm(3000)
	now := sim.Time(0)
	for _, k := range perm {
		done, err := tree.Insert(now, Key(uint32(k)), Key(uint32(k)))
		if err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
		now = done
	}
	// Full scan returns every key exactly once, in order.
	var keys []uint32
	if _, err := tree.Scan(now, nil, nil, func(k, v []byte) bool {
		keys = append(keys, uint32(k[0])<<24|uint32(k[1])<<16|uint32(k[2])<<8|uint32(k[3]))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 3000 {
		t.Fatalf("scan saw %d keys", len(keys))
	}
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Fatal("scan not sorted")
	}
	for i, k := range keys {
		if int(k) != i {
			t.Fatalf("missing/duplicate key at %d: %d", i, k)
		}
	}
}

func TestTreeDelete(t *testing.T) {
	tree, _, _ := testTree(t, 64, 512)
	now := sim.Time(0)
	for i := 0; i < 500; i++ {
		done, err := tree.Insert(now, Key(uint32(i)), []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	for i := 0; i < 500; i += 2 {
		done, err := tree.Delete(now, Key(uint32(i)))
		if err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
		now = done
	}
	if tree.Entries() != 250 {
		t.Fatalf("entries after delete = %d", tree.Entries())
	}
	for i := 0; i < 500; i++ {
		_, done, found, err := tree.Get(now, Key(uint32(i)))
		if err != nil {
			t.Fatal(err)
		}
		now = done
		if (i%2 == 0) == found {
			t.Fatalf("key %d: found=%v", i, found)
		}
	}
	if _, err := tree.Delete(now, Key(99999)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete missing: %v", err)
	}
	// Deleted keys can be reinserted.
	if _, err := tree.Insert(now, Key(0), []byte("back")); err != nil {
		t.Fatal(err)
	}
	v, _, found, _ := tree.Get(now, Key(0))
	if !found || string(v) != "back" {
		t.Fatalf("reinsert lost: %q", v)
	}
}

func TestTreeRangeAndPrefixScan(t *testing.T) {
	tree, _, _ := testTree(t, 64, 512)
	now := sim.Time(0)
	// Composite keys (w, d, o): 3 warehouses x 4 districts x 20 orders.
	for w := uint32(1); w <= 3; w++ {
		for d := uint32(1); d <= 4; d++ {
			for o := uint32(1); o <= 20; o++ {
				done, err := tree.Insert(now, Key(w, d, o), Key(o))
				if err != nil {
					t.Fatal(err)
				}
				now = done
			}
		}
	}
	// Range scan [w=2,d=3,o=5 .. w=2,d=3,o=15)
	var got []uint32
	if _, err := tree.Scan(now, Key(2, 3, 5), Key(2, 3, 15), func(k, v []byte) bool {
		got = append(got, uint32(v[3]))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || got[0] != 5 || got[9] != 14 {
		t.Fatalf("range scan = %v", got)
	}
	// Prefix scan of one district sees exactly its 20 orders.
	count := 0
	if _, err := tree.ScanPrefix(now, Key(2, 3), func(k, v []byte) bool {
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 20 {
		t.Fatalf("prefix scan saw %d", count)
	}
	// Early stop.
	count = 0
	if _, err := tree.Scan(now, nil, nil, func(k, v []byte) bool {
		count++
		return count < 5
	}); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Fatalf("early stop at %d", count)
	}
	// Scan starting beyond the last key is empty.
	count = 0
	if _, err := tree.Scan(now, Key(9, 9, 9), nil, func(k, v []byte) bool {
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Fatalf("scan past end saw %d", count)
	}
}

func TestTreeSurvivesEviction(t *testing.T) {
	// 8 frames only: index pages constantly round-trip through flash.
	tree, mgr, pool := testTree(t, 8, 512)
	now := sim.Time(0)
	const n = 1500
	for i := 0; i < n; i++ {
		done, err := tree.Insert(now, Key(uint32(i)), Key(uint32(i*7)))
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		now = done
	}
	if _, err := pool.FlushAll(now); err != nil {
		t.Fatal(err)
	}
	if mgr.Stats().HostWrites == 0 {
		t.Fatal("index pages never reached flash")
	}
	for i := 0; i < n; i++ {
		v, done, found, err := tree.Get(now, Key(uint32(i)))
		if err != nil || !found {
			t.Fatalf("get %d: %v found=%v", i, err, found)
		}
		now = done
		if !bytes.Equal(v, Key(uint32(i*7))) {
			t.Fatalf("value %d corrupted", i)
		}
	}
}

func TestTreeKeyTooLarge(t *testing.T) {
	tree, _, _ := testTree(t, 16, 512)
	big := make([]byte, 400)
	if _, err := tree.Insert(0, big, []byte("v")); !errors.Is(err, ErrKeyTooLarge) {
		t.Fatalf("want ErrKeyTooLarge, got %v", err)
	}
}

// TestKeyOrderPreserving: byte order of composite keys is the numeric order
// of their components, and AppendKey appends what Key builds.
func TestKeyOrderPreserving(t *testing.T) {
	a, b, c, d := Key(1, 2, 42), Key(1, 2, 256), Key(1, 3, 0), Key(256, 0, 0)
	if !(bytes.Compare(a, b) < 0 && bytes.Compare(b, c) < 0 && bytes.Compare(c, d) < 0) {
		t.Fatal("composite keys not order preserving")
	}
	if len(Key(1, 2, 3)) != 12 {
		t.Fatalf("Key length = %d", len(Key(1, 2, 3)))
	}
	if got := AppendKey([]byte("x"), 1, 2); !bytes.Equal(got, append([]byte("x"), Key(1, 2)...)) {
		t.Fatalf("AppendKey = %x", got)
	}
}

func TestPrefixEnd(t *testing.T) {
	if got := prefixEnd(nil, []byte{1, 2, 3}); !bytes.Equal(got, []byte{1, 2, 4}) {
		t.Fatalf("prefixEnd = %v", got)
	}
	if got := prefixEnd(nil, []byte{1, 0xFF}); !bytes.Equal(got, []byte{2}) {
		t.Fatalf("prefixEnd with trailing FF = %v", got)
	}
	if got := prefixEnd(nil, []byte{0xFF, 0xFF}); got != nil {
		t.Fatalf("prefixEnd all-FF = %v", got)
	}
}

// Property: the tree behaves like a sorted map under random upserts and
// deletes; a full scan returns exactly the surviving keys in sorted order.
func TestTreeMatchesMapProperty(t *testing.T) {
	f := func(ops []uint16, deletes []uint16) bool {
		cfg := flash.DefaultConfig()
		cfg.Geometry = flash.Geometry{
			Channels: 1, DiesPerChannel: 2, PlanesPerDie: 1,
			BlocksPerDie: 128, PagesPerBlock: 32, PageSize: 512,
		}
		dev, err := flash.NewDevice(cfg)
		if err != nil {
			return false
		}
		mgr := core.NewManager(dev, core.DefaultOptions())
		pool := buffer.New(mgr, 32, 512, nil)
		ts := storage.NewTablespace("ts", core.DefaultRegionID, 16, mgr)
		tree, _, err := New(0, "P", 1, ts, pool)
		if err != nil {
			return false
		}
		model := map[uint32][]byte{}
		now := sim.Time(0)
		for i, op := range ops {
			k := uint32(op) % 512
			v := Key(uint32(i))
			done, err := tree.Insert(now, Key(k), v)
			if err != nil {
				return false
			}
			now = done
			model[k] = v
		}
		for _, d := range deletes {
			k := uint32(d) % 512
			if _, ok := model[k]; !ok {
				continue
			}
			done, err := tree.Delete(now, Key(k))
			if err != nil {
				return false
			}
			now = done
			delete(model, k)
		}
		if tree.Entries() != int64(len(model)) {
			return false
		}
		var prev []byte
		count := 0
		_, err = tree.Scan(now, nil, nil, func(k, v []byte) bool {
			if prev != nil && bytes.Compare(prev, k) >= 0 {
				count = -1 << 30
				return false
			}
			prev = append(prev[:0], k...)
			kk := uint32(k[0])<<24 | uint32(k[1])<<16 | uint32(k[2])<<8 | uint32(k[3])
			want, ok := model[kk]
			if !ok || !bytes.Equal(want, v) {
				count = -1 << 30
				return false
			}
			count++
			return true
		})
		if err != nil {
			return false
		}
		return count == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestResidentLookupAllocatesNothing gates Index.Lookup's descent: on a tree
// whose pages are all resident, GetAppend into the caller's buffer allocates
// nothing.
func TestResidentLookupAllocatesNothing(t *testing.T) {
	tree, _, _ := testTree(t, 512, 512)
	now := sim.Time(0)
	for i := 0; i < 2000; i++ {
		done, err := tree.Insert(now, Key(uint32(i)), storage.RID{LPN: uint64(i), Slot: 1}.Encode())
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	if tree.Height() < 2 {
		t.Fatalf("height %d: the lookup would not descend", tree.Height())
	}
	key := Key(1234)
	var buf [10]byte
	if n := testing.AllocsPerRun(100, func() {
		v, _, found, err := tree.GetAppend(now, key, buf[:0])
		if err != nil || !found || len(v) != len(buf) {
			t.Fatalf("lookup: %q found=%v err=%v", v, found, err)
		}
	}); n != 0 {
		t.Errorf("a resident lookup allocates %v times, want 0", n)
	}
}
