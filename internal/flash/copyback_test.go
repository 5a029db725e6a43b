package flash

import (
	"bytes"
	"testing"
)

// readBytes reads the page at addr, failing the test on error.
func readBytes(t *testing.T, d *Device, addr Addr) []byte {
	t.Helper()
	got, _, _, err := d.ReadPage(0, addr, nil)
	if err != nil {
		t.Fatalf("ReadPage %v: %v", addr, err)
	}
	return got
}

// copiedPair programs src with a device buffer filled with fill, copies it
// back to dst and returns a copy of the bytes.  The pages are the buffer's
// only holders.
func copiedPair(t *testing.T, d *Device, src, dst Addr, fill byte) []byte {
	t.Helper()
	data := d.PageBuf()
	copy(data, pageData(d.geo.PageSize, fill))
	if _, err := d.ProgramPage(0, src, data, PageMeta{LPN: 7, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	d.Release(data)
	if _, _, err := d.Copyback(0, src, dst); err != nil {
		t.Fatal(err)
	}
	return bytes.Clone(data)
}

func TestCopybackSourceAndDestinationReadEqual(t *testing.T) {
	d := newTestDevice(t, testConfig())
	src, dst := Addr{Die: 2, Block: 1, Page: 0}, Addr{Die: 2, Block: 4, Page: 0}
	data := copiedPair(t, d, src, dst, 0x3C)
	if a, b := readBytes(t, d, src), readBytes(t, d, dst); !bytes.Equal(a, data) || !bytes.Equal(b, data) {
		t.Fatal("source and destination of a copyback differ from the programmed bytes")
	}
}

func TestCopybackDestinationSurvivesSourceErase(t *testing.T) {
	cfg := testConfig()
	d := newTestDevice(t, cfg)
	src, dst := Addr{Die: 0, Block: 0, Page: 0}, Addr{Die: 0, Block: 1, Page: 0}
	data := copiedPair(t, d, src, dst, 0x11)
	if _, err := d.EraseBlock(0, src.BlockAddr()); err != nil {
		t.Fatal(err)
	}
	// Reprogram every page of the erased block, and more, from buffers of the
	// free list, so any buffer the erase let go of is reused and overwritten.
	for _, blk := range []int{0, 2, 3} {
		for p := 0; p < cfg.Geometry.PagesPerBlock; p++ {
			buf := d.PageBuf()
			copy(buf, pageData(cfg.Geometry.PageSize, 0xEE))
			if _, err := d.ProgramPage(0, Addr{Die: 0, Block: blk, Page: p}, buf, PageMeta{}); err != nil {
				t.Fatal(err)
			}
			d.Release(buf)
		}
	}
	if !bytes.Equal(readBytes(t, d, dst), data) {
		t.Fatal("erasing a copyback's source changed its destination")
	}
}

func TestSharedBufferFreedOnceAfterBothErased(t *testing.T) {
	d := newTestDevice(t, testConfig())
	src, dst := Addr{Die: 3, Block: 2, Page: 0}, Addr{Die: 3, Block: 5, Page: 0}
	copiedPair(t, d, src, dst, 0x77)
	free := len(d.freeBufs)
	if _, err := d.EraseBlock(0, src.BlockAddr()); err != nil {
		t.Fatal(err)
	}
	if n := len(d.freeBufs); n != free {
		t.Fatalf("erasing the source freed %d buffers while the destination still uses the shared one", n-free)
	}
	if _, err := d.EraseBlock(0, dst.BlockAddr()); err != nil {
		t.Fatal(err)
	}
	if n := len(d.freeBufs); n != free+1 {
		t.Fatalf("erasing both pages freed %d buffers, want 1", n-free)
	}
}

func TestCorruptPageUnsharesTheBuffer(t *testing.T) {
	d := newTestDevice(t, testConfig())
	src, dst := Addr{Die: 1, Block: 6, Page: 0}, Addr{Die: 1, Block: 7, Page: 0}
	data := copiedPair(t, d, src, dst, 0x42)
	if err := d.CorruptPage(dst, 8, 4, 0xFF); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readBytes(t, d, src), data) {
		t.Fatal("corrupting a copyback's destination changed its source")
	}
	got := readBytes(t, d, dst)
	want := bytes.Clone(data)
	for i := 8; i < 12; i++ {
		want[i] ^= 0xFF
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the corrupted page does not read its flipped bytes")
	}
}

// BenchmarkCopyback relocates one page back and forth between two blocks of a
// die: a copyback, then the erase of its source, per iteration.
func BenchmarkCopyback(b *testing.B) {
	cfg := DefaultConfig()
	d, err := NewDevice(cfg)
	if err != nil {
		b.Fatal(err)
	}
	from, to := Addr{Die: 0, Block: 0, Page: 0}, Addr{Die: 0, Block: 1, Page: 0}
	if _, err := d.ProgramPage(0, from, make([]byte, cfg.Geometry.PageSize), PageMeta{LPN: 1}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := d.Copyback(0, from, to); err != nil {
			b.Fatal(err)
		}
		if _, err := d.EraseBlock(0, from.BlockAddr()); err != nil {
			b.Fatal(err)
		}
		from, to = to, from
	}
}
