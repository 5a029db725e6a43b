package core

import (
	"bytes"
	"errors"
	"testing"
)

func TestLPNBeyondEveryChunkIsUnmapped(t *testing.T) {
	dev := smallDevice(t, 2, 16, 8)
	m := NewManager(dev, DefaultOptions())
	lpn := m.AllocateLPNs(1)
	if _, err := m.WritePage(0, lpn, fillPage(dev, 1), Hint{}); err != nil {
		t.Fatal(err)
	}
	far := lpn + 10*lpnChunk
	if _, _, err := m.ReadPage(0, far, nil); !errors.Is(err, ErrUnmappedPage) {
		t.Fatalf("ReadPage beyond every chunk: want ErrUnmappedPage, got %v", err)
	}
	if err := m.TrimPage(far); !errors.Is(err, ErrUnmappedPage) {
		t.Fatalf("TrimPage beyond every chunk: want ErrUnmappedPage, got %v", err)
	}
	if _, ok := m.Locate(far); ok {
		t.Fatal("Locate reports an LPN beyond every chunk mapped")
	}
	if m.mapping.At(far) != nil {
		t.Fatal("reading beyond every chunk added one")
	}
}

func TestVerifyCountsMappedPagesAfterTrimmingAChunk(t *testing.T) {
	dev := smallDevice(t, 4, 64, 64)
	m := NewManager(dev, DefaultOptions())
	first := m.AllocateLPNs(2 * lpnChunk)
	writes := make([]PageWrite, 2*lpnChunk)
	for i := range writes {
		writes[i] = PageWrite{LPN: first + LPN(i), Data: fillPage(dev, byte(i))}
	}
	if _, err := m.WritePages(0, writes); err != nil {
		t.Fatal(err)
	}
	// Trim every page of the second chunk, which the writes cover whole.
	for lpn := LPN(lpnChunk); lpn < 2*lpnChunk; lpn++ {
		if err := m.TrimPage(lpn); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	if got, want := m.Stats().ValidPages, int64(lpnChunk); got != want {
		t.Fatalf("%d valid pages after trimming a chunk, want %d", got, want)
	}
}

func TestAdoptInstallsLPNAboveNextLPN(t *testing.T) {
	dev := smallDevice(t, 2, 16, 8)
	opts := DefaultOptions()
	m := NewManager(dev, opts)
	// No AllocateLPNs: the page lies above every LPN the manager handed out
	// and beyond the table's only chunk.
	lpn := LPN(3*lpnChunk + 17)
	data := fillPage(dev, 0x6D)
	if _, err := m.WritePage(0, lpn, data, Hint{}); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()

	rec, survey := SurveyDevice(dev, opts)
	if _, _, err := rec.Adopt(survey, snap, []LPN{lpn}); err != nil {
		t.Fatal(err)
	}
	if _, ok := rec.Locate(lpn); !ok {
		t.Fatal("adopted page is not mapped")
	}
	got, _, err := rec.ReadPage(0, lpn, nil)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("adopted page reads wrong: %v", err)
	}
	if err := rec.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}
