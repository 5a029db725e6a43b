package buffer

import (
	"bytes"
	"errors"
	"testing"

	"noftl/internal/core"
	"noftl/internal/flash"
	"noftl/internal/sim"
)

// The pool over a real device: the tests below check who holds a page's one
// buffer, which only the device's counts can show.

// deviceStack returns a pool of frames over a space manager on a fresh
// default device.
func deviceStack(t *testing.T, frames int) (*flash.Device, *core.Manager, *Pool) {
	t.Helper()
	dev, err := flash.NewDevice(flash.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	mgr := core.NewManager(dev, core.DefaultOptions())
	return dev, mgr, New(mgr, frames, dev.Geometry().PageSize, nil)
}

var holdHint = core.Hint{Region: core.DefaultRegionID, ObjectID: 1}

// writePages creates n pages through the pool, page i filled with byte i+1,
// and flushes them.
func writePages(t *testing.T, p *Pool, mgr *core.Manager, n int) ([]core.LPN, sim.Time) {
	t.Helper()
	first := mgr.AllocateLPNs(n)
	lpns := make([]core.LPN, n)
	var now sim.Time
	for i := range lpns {
		lpns[i] = first + core.LPN(i)
		h, done, err := p.NewPage(now, lpns[i], holdHint)
		if err != nil {
			t.Fatal(err)
		}
		now = done
		fill(h.Data(), byte(i+1))
		h.MarkDirty()
		h.Release()
	}
	now, err := p.FlushAll(now)
	if err != nil {
		t.Fatal(err)
	}
	return lpns, now
}

func fill(b []byte, v byte) {
	for i := range b {
		b[i] = v
	}
}

// addrOf returns where the newest version of lpn is programmed.
func addrOf(t *testing.T, dev *flash.Device, lpn core.LPN) flash.Addr {
	t.Helper()
	var at flash.PageSurvey
	for _, blk := range dev.Survey() {
		for _, pg := range blk.Pages {
			if pg.Meta.LPN == uint64(lpn) && pg.Meta.Seq >= at.Meta.Seq {
				at = pg
			}
		}
	}
	if at.Meta.Seq == 0 {
		t.Fatalf("lpn %d is not on the device", lpn)
	}
	return at.Addr
}

// frameOf returns the frame holding lpn.
func frameOf(t *testing.T, p *Pool, lpn core.LPN) *Frame {
	t.Helper()
	f := p.resident(p.shardOf(lpn), lpn)
	if f == nil {
		t.Fatalf("lpn %d is not resident", lpn)
	}
	return f
}

// TestHoldErasedPageKeepsTheFramesBuffer erases the block of a page a clean
// frame aliases, then programs a block's worth of buffers drawn from the free
// list: the frame's bytes stay what they were.
func TestHoldErasedPageKeepsTheFramesBuffer(t *testing.T) {
	dev, mgr, p := deviceStack(t, 8)
	lpns, now := writePages(t, p, mgr, 1)
	f := frameOf(t, p, lpns[0])
	if f.own {
		t.Fatal("a flushed frame still owns its buffer")
	}
	addr := addrOf(t, dev, lpns[0])
	if got, _, _, err := dev.ReadPage(now, addr, nil); err != nil || &got[0] != &f.data[0] {
		t.Fatalf("the clean frame does not alias the device's buffer (err %v)", err)
	}
	if _, err := dev.EraseBlock(now, addr.BlockAddr()); err != nil {
		t.Fatal(err)
	}
	geo := dev.Geometry()
	other := flash.Addr{Die: (addr.Die + 1) % geo.Dies(), Block: geo.BlocksPerDie - 1}
	for other.Page = 0; other.Page < geo.PagesPerBlock; other.Page++ {
		buf := dev.PageBuf()
		if &buf[0] == &f.data[0] {
			t.Fatal("the erase put a buffer a frame holds on the free list")
		}
		fill(buf, 0xEE)
		if _, err := dev.ProgramPage(now, other, buf, flash.PageMeta{LPN: 1 << 40}); err != nil {
			t.Fatal(err)
		}
		dev.Release(buf)
	}
	if !bytes.Equal(f.data, bytes.Repeat([]byte{1}, geo.PageSize)) {
		t.Fatal("programs after the erase changed the frame's bytes")
	}
}

// TestHoldOneBufferOnManyPages programs one buffer to pages on several blocks,
// as the layer drills do, and erases them in every order: the buffer goes
// back to the free list only when its last holder, page or caller, lets go.
func TestHoldOneBufferOnManyPages(t *testing.T) {
	orders := [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}}
	for _, order := range orders {
		for _, callerLast := range []bool{false, true} {
			dev, err := flash.NewDevice(flash.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			buf := dev.PageBuf()
			fill(buf, 0x5A)
			blocks := make([]flash.BlockAddr, len(order))
			for i := range blocks {
				blocks[i] = flash.BlockAddr{Die: i % 2, Block: i}
				for pg := 0; pg < 3; pg++ {
					a := flash.Addr{Die: blocks[i].Die, Block: blocks[i].Block, Page: pg}
					if _, err := dev.ProgramPage(0, a, buf, flash.PageMeta{LPN: uint64(10*i + pg)}); err != nil {
						t.Fatal(err)
					}
				}
			}
			// recycled reports whether the next buffer drawn is buf (the free
			// list hands out the buffer released last first).
			recycled := func() bool {
				b := dev.PageBuf()
				dev.Release(b)
				return &b[0] == &buf[0]
			}
			holders := len(blocks) + 1
			let := func() {
				holders--
				if got := recycled(); got != (holders == 0) {
					t.Fatalf("order %v, caller last %v: with %d holders left, recycled is %v",
						order, callerLast, holders, got)
				}
			}
			if !callerLast {
				dev.Release(buf)
				let()
			}
			for _, i := range order {
				if _, err := dev.EraseBlock(0, blocks[i]); err != nil {
					t.Fatal(err)
				}
				let()
			}
			if callerLast {
				dev.Release(buf)
				let()
			}
		}
	}
}

// TestHoldFailedWriteBackLeavesFramesReadOnly crashes the device half-way
// through a Flush: every frame of the batch, programmed or not, has handed
// its buffer over, and the next write copies first.
func TestHoldFailedWriteBackLeavesFramesReadOnly(t *testing.T) {
	dev, mgr, p := deviceStack(t, 16)
	lpns, now := writePages(t, p, mgr, 8)
	for i, lpn := range lpns {
		h, _, err := p.Fetch(now, lpn, holdHint)
		if err != nil {
			t.Fatal(err)
		}
		fill(h.Writable(), byte(0x80+i))
		h.MarkDirty()
		h.Release()
	}
	before := make([][]byte, len(lpns))
	for i, lpn := range lpns {
		before[i] = frameOf(t, p, lpn).data
	}
	dev.Arm(flash.FaultPlan{CrashAfterOps: 4})
	if _, _, _, err := p.Flush(now); !errors.Is(err, flash.ErrCrashed) {
		t.Fatalf("flush: %v, want the injected crash", err)
	}
	dev.Arm(flash.FaultPlan{}) // up again, with the pool's holds (Revive would end them)
	programmed := 0
	for i, lpn := range lpns {
		f := frameOf(t, p, lpn)
		if f.own || !f.dirty {
			t.Fatalf("page %d after the failed flush: own %v, dirty %v; want read-only and dirty", i, f.own, f.dirty)
		}
		addr := addrOf(t, dev, lpn)
		got, _, _, err := dev.ReadPage(now, addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		if &got[0] == &before[i][0] {
			programmed++
		}
		h, _, err := p.Fetch(now, lpn, holdHint)
		if err != nil {
			t.Fatal(err)
		}
		w := h.Writable()
		if &w[0] == &before[i][0] || !bytes.Equal(w, before[i]) {
			t.Fatalf("page %d: the first write after the failed flush did not get a copy", i)
		}
		fill(w, 0xFF)
		h.Release()
		if !bytes.Equal(before[i], bytes.Repeat([]byte{byte(0x80 + i)}, len(w))) {
			t.Fatalf("page %d: writing the copy changed the handed buffer", i)
		}
	}
	if programmed == 0 || programmed == len(lpns) {
		t.Fatalf("%d of %d pages were programmed: the crash was not half-way", programmed, len(lpns))
	}
}

// TestHoldCorruptPageSparesTheFrame corrupts a page a clean frame aliases:
// the device reads the flipped bytes, the frame keeps the ones it had.
func TestHoldCorruptPageSparesTheFrame(t *testing.T) {
	dev, mgr, p := deviceStack(t, 8)
	lpns, now := writePages(t, p, mgr, 1)
	f := frameOf(t, p, lpns[0])
	addr := addrOf(t, dev, lpns[0])
	if err := dev.CorruptPage(addr, 100, 8, 0xFF); err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{1}, dev.Geometry().PageSize)
	if !bytes.Equal(f.data, want) {
		t.Fatal("corrupting the page changed the resident frame")
	}
	got := make([]byte, len(want))
	if _, _, _, err := dev.ReadPage(now, addr, got); err != nil {
		t.Fatal(err)
	}
	if got[100] != 1^0xFF || got[107] != 1^0xFF || got[108] != 1 {
		t.Fatal("the device does not read the corrupted bytes")
	}
}

// TestHoldCleanFramesOwnNoBuffer writes more pages than the pool has frames,
// flushes, and sweeps them read-only: no clean frame owns a buffer.
func TestHoldCleanFramesOwnNoBuffer(t *testing.T) {
	_, mgr, p := deviceStack(t, 16)
	lpns, now := writePages(t, p, mgr, 64)
	owned := func() (n int) {
		for _, s := range p.shards {
			for _, f := range s.frames {
				if f.own {
					n++
				}
			}
		}
		return n
	}
	if n := owned(); n != 0 {
		t.Fatalf("after Flush %d frames own a buffer", n)
	}
	for round := 0; round < 2; round++ {
		for i, lpn := range lpns {
			h, done, err := p.Fetch(now, lpn, holdHint)
			if err != nil {
				t.Fatal(err)
			}
			now = done
			if h.Data()[0] != byte(i+1) {
				t.Fatalf("page %d reads %d", i, h.Data()[0])
			}
			h.Release()
		}
	}
	if st := p.Stats(); st.Misses == 0 || st.Resident == 0 || st.Dirty != 0 {
		t.Fatalf("the sweep did not miss: %+v", st)
	}
	if n := owned(); n != 0 {
		t.Fatalf("after a read-only sweep %d frames own a buffer", n)
	}
}

// TestHoldDeadPoolLeaksNothing abandons a pool whose frames alias the
// device's buffers, as a crash does: after Revive, the power cycle, only the
// pages hold them, and erasing the pages frees them.
func TestHoldDeadPoolLeaksNothing(t *testing.T) {
	dev, mgr, p := deviceStack(t, 8)
	lpns, now := writePages(t, p, mgr, 1)
	held := frameOf(t, p, lpns[0]).data
	addr := addrOf(t, dev, lpns[0])
	dev.Revive()
	drawn := make([][]byte, 300) // more than a slab's worth
	for i := range drawn {
		if drawn[i] = dev.PageBuf(); &drawn[i][0] == &held[0] {
			t.Fatal("Revive freed a buffer a page still holds")
		}
	}
	for _, b := range drawn {
		dev.Release(b)
	}
	if _, err := dev.EraseBlock(now, addr.BlockAddr()); err != nil {
		t.Fatal(err)
	}
	if b := dev.PageBuf(); &b[0] != &held[0] {
		t.Fatal("a buffer only the dead pool held did not go back to the free list")
	}
}
