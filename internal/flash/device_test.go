package flash

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"noftl/internal/sim"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Geometry = Geometry{
		Channels:       2,
		DiesPerChannel: 2,
		PlanesPerDie:   1,
		BlocksPerDie:   8,
		PagesPerBlock:  4,
		PageSize:       512,
	}
	return cfg
}

func newTestDevice(t *testing.T, cfg Config) *Device {
	t.Helper()
	d, err := NewDevice(cfg)
	if err != nil {
		t.Fatalf("NewDevice: %v", err)
	}
	return d
}

// surveyOf returns the survey of one block.
func surveyOf(d *Device, b BlockAddr) BlockSurvey {
	return d.Survey()[b.Die*d.geo.BlocksPerDie+b.Block]
}

func pageData(size int, fill byte) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = fill
	}
	return b
}

func TestNewDeviceRejectsBadGeometry(t *testing.T) {
	cfg := testConfig()
	cfg.Geometry.Channels = 0
	if _, err := NewDevice(cfg); err == nil {
		t.Fatal("invalid geometry accepted")
	}
}

func TestProgramReadRoundTrip(t *testing.T) {
	cfg := testConfig()
	d := newTestDevice(t, cfg)
	addr := Addr{Die: 1, Block: 2, Page: 0}
	data := pageData(cfg.Geometry.PageSize, 0xAB)
	meta := PageMeta{LPN: 77, ObjectID: 3, RegionID: 1, Seq: 9, Flags: FlagHeap}

	done, err := d.ProgramPage(0, addr, data, meta)
	if err != nil {
		t.Fatalf("ProgramPage: %v", err)
	}
	if done <= 0 {
		t.Fatalf("program completion time not advanced: %v", done)
	}
	got, gotMeta, rdone, err := d.ReadPage(done, addr, nil)
	if err != nil {
		t.Fatalf("ReadPage: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read data differs from programmed data")
	}
	if gotMeta != meta {
		t.Fatalf("meta mismatch: %+v vs %+v", gotMeta, meta)
	}
	if rdone <= done {
		t.Fatal("read completion time did not advance")
	}
	// Reading into a caller-provided buffer works too.
	buf := make([]byte, cfg.Geometry.PageSize)
	if _, _, _, err := d.ReadPage(rdone, addr, buf); err != nil {
		t.Fatalf("ReadPage into buffer: %v", err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("buffered read data differs")
	}
	// A page programmed without a payload carries its metadata only.
	bare := Addr{Die: 1, Block: 2, Page: 1}
	if _, err := d.ProgramPage(rdone, bare, nil, PageMeta{LPN: 9}); err != nil {
		t.Fatal(err)
	}
	if got, gotMeta, _, err := d.ReadPage(rdone, bare, nil); err != nil || got != nil || gotMeta.LPN != 9 {
		t.Fatalf("payload-less page read = %v, %+v, %v", got, gotMeta, err)
	}
}

func TestProgramConstraints(t *testing.T) {
	cfg := testConfig()
	d := newTestDevice(t, cfg)
	data := pageData(cfg.Geometry.PageSize, 1)

	// Out of range.
	if _, err := d.ProgramPage(0, Addr{Die: 99, Block: 0, Page: 0}, data, PageMeta{}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("want ErrOutOfRange, got %v", err)
	}
	// Wrong payload size.
	if _, err := d.ProgramPage(0, Addr{}, pageData(10, 1), PageMeta{}); !errors.Is(err, ErrPageSize) {
		t.Fatalf("want ErrPageSize, got %v", err)
	}
	// Sequential programming: page 1 before page 0 is rejected.
	if _, err := d.ProgramPage(0, Addr{Die: 0, Block: 0, Page: 1}, data, PageMeta{}); !errors.Is(err, ErrProgramOrder) {
		t.Fatalf("want ErrProgramOrder, got %v", err)
	}
	// Program page 0, then rewriting it is rejected.
	if _, err := d.ProgramPage(0, Addr{Die: 0, Block: 0, Page: 0}, data, PageMeta{}); err != nil {
		t.Fatalf("ProgramPage: %v", err)
	}
	if _, err := d.ProgramPage(0, Addr{Die: 0, Block: 0, Page: 0}, data, PageMeta{}); !errors.Is(err, ErrNotErased) {
		t.Fatalf("want ErrNotErased, got %v", err)
	}
	// Reading an erased page fails.
	if _, _, _, err := d.ReadPage(0, Addr{Die: 0, Block: 0, Page: 3}, nil); !errors.Is(err, ErrReadErased) {
		t.Fatalf("want ErrReadErased, got %v", err)
	}
	// The survey's next page reflects the constraint.
	if n := surveyOf(d, BlockAddr{0, 0}).NextPage; n != 1 {
		t.Fatalf("next programmable page = %d, want 1", n)
	}
}

func TestEraseResetsBlock(t *testing.T) {
	cfg := testConfig()
	d := newTestDevice(t, cfg)
	data := pageData(cfg.Geometry.PageSize, 7)
	addr := Addr{Die: 0, Block: 1, Page: 0}
	if _, err := d.ProgramPage(0, addr, data, PageMeta{LPN: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.EraseBlock(0, addr.BlockAddr()); err != nil {
		t.Fatal(err)
	}
	bs := surveyOf(d, addr.BlockAddr())
	if len(bs.Pages) != 0 {
		t.Fatal("page still programmed after erase")
	}
	if bs.NextPage != 0 {
		t.Fatalf("nextPage after erase = %d", bs.NextPage)
	}
	if bs.EraseCount != 1 {
		t.Fatalf("erase count = %d", bs.EraseCount)
	}
	// The page can be programmed again after the erase.
	if _, err := d.ProgramPage(0, addr, data, PageMeta{LPN: 6}); err != nil {
		t.Fatalf("program after erase: %v", err)
	}
	if _, err := d.EraseBlock(0, BlockAddr{Die: 0, Block: 99}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("want ErrOutOfRange, got %v", err)
	}
}

func TestEnduranceMarksBlocksBad(t *testing.T) {
	cfg := testConfig()
	cfg.EraseEndurance = 3
	d := newTestDevice(t, cfg)
	b := BlockAddr{Die: 0, Block: 0}
	for i := 0; i < 3; i++ {
		if _, err := d.EraseBlock(0, b); err != nil {
			t.Fatalf("erase %d: %v", i, err)
		}
	}
	if bad, _ := d.IsBad(b); !bad {
		t.Fatal("block not marked bad after reaching endurance")
	}
	if _, err := d.EraseBlock(0, b); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("want ErrBadBlock, got %v", err)
	}
	if _, err := d.ProgramPage(0, Addr{Die: 0, Block: 0, Page: 0}, pageData(cfg.Geometry.PageSize, 1), PageMeta{}); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("want ErrBadBlock on program, got %v", err)
	}
	st := d.Stats()
	if st.BadBlocks != 1 {
		t.Fatalf("BadBlocks = %d", st.BadBlocks)
	}
}

func TestCopyback(t *testing.T) {
	cfg := testConfig()
	d := newTestDevice(t, cfg)
	data := pageData(cfg.Geometry.PageSize, 0x5A)
	src := Addr{Die: 1, Block: 0, Page: 0}
	dst := Addr{Die: 1, Block: 3, Page: 0}
	meta := PageMeta{LPN: 123, Seq: 4}
	if _, err := d.ProgramPage(0, src, data, meta); err != nil {
		t.Fatal(err)
	}
	gotMeta, done, err := d.Copyback(0, src, dst)
	if err != nil {
		t.Fatalf("Copyback: %v", err)
	}
	if gotMeta != meta {
		t.Fatalf("copyback meta mismatch: %+v", gotMeta)
	}
	if done <= 0 {
		t.Fatal("copyback did not consume time")
	}
	got, m, _, err := d.ReadPage(done, dst, nil)
	if err != nil || !bytes.Equal(got, data) || m != meta {
		t.Fatalf("copyback destination wrong: %v", err)
	}
	// Cross-die copyback is rejected.
	if _, _, err := d.Copyback(0, src, Addr{Die: 0, Block: 0, Page: 0}); !errors.Is(err, ErrCopybackCrossDie) {
		t.Fatalf("want ErrCopybackCrossDie, got %v", err)
	}
	// Copyback from an erased page is rejected.
	if _, _, err := d.Copyback(0, Addr{Die: 1, Block: 5, Page: 0}, Addr{Die: 1, Block: 6, Page: 0}); !errors.Is(err, ErrReadErased) {
		t.Fatalf("want ErrReadErased, got %v", err)
	}
	// Copyback onto a programmed page is rejected.
	if _, _, err := d.Copyback(0, src, dst); !errors.Is(err, ErrNotErased) {
		t.Fatalf("want ErrNotErased, got %v", err)
	}
}

func TestVirtualTimeQueueingOnOneDie(t *testing.T) {
	cfg := testConfig()
	d := newTestDevice(t, cfg)
	data := pageData(cfg.Geometry.PageSize, 1)
	// Two programs to the same die issued at the same virtual instant must be
	// serialized on the die.
	done1, err := d.ProgramPage(0, Addr{Die: 0, Block: 0, Page: 0}, data, PageMeta{})
	if err != nil {
		t.Fatal(err)
	}
	done2, err := d.ProgramPage(0, Addr{Die: 0, Block: 0, Page: 1}, data, PageMeta{})
	if err != nil {
		t.Fatal(err)
	}
	if done2 <= done1 {
		t.Fatalf("second program on the same die not serialized: %v vs %v", done2, done1)
	}
	// Programs to dies on different channels overlap almost completely.
	dA, err := d.ProgramPage(0, Addr{Die: 2, Block: 0, Page: 0}, data, PageMeta{})
	if err != nil {
		t.Fatal(err)
	}
	dB, err := d.ProgramPage(0, Addr{Die: 3, Block: 0, Page: 0}, data, PageMeta{})
	if err != nil {
		t.Fatal(err)
	}
	serial := cfg.Timing.Transfer + cfg.Timing.ProgramPage
	if dA > sim.Time(2*serial) || dB > sim.Time(2*serial) {
		t.Fatalf("independent dies appear serialized: %v %v", dA, dB)
	}
}

// Two cursors 50 ms apart share one die.  The die serves in arrival order: the
// cursor that lags is served in the idle time before the leader's operations
// although it submits after them, and no two operations ever overlap.
func TestCursorsApartOnOneDieServeInArrivalOrder(t *testing.T) {
	cfg := testConfig()
	d := newTestDevice(t, cfg)
	data := pageData(cfg.Geometry.PageSize, 1)
	tm := cfg.Timing
	type service struct{ start, done sim.Time }
	var served []service

	lead, lag := sim.Time(50_000_000), sim.Time(0)
	for p := 0; p < cfg.Geometry.PagesPerBlock; p++ {
		// The leader programs block 0, then the laggard programs block 1 and
		// reads its page back.
		done, err := d.ProgramPage(lead, Addr{Die: 0, Block: 0, Page: p}, data, PageMeta{})
		if err != nil {
			t.Fatal(err)
		}
		served = append(served, service{done.Add(-tm.ProgramPage), done})
		lead = done

		done, err = d.ProgramPage(lag, Addr{Die: 0, Block: 1, Page: p}, data, PageMeta{})
		if err != nil {
			t.Fatal(err)
		}
		if want := lag.Add(tm.Transfer + tm.ProgramPage); done != want {
			t.Fatalf("laggard program %d done %v, want %v: it waited for the leader", p, done, want)
		}
		served = append(served, service{done.Add(-tm.ProgramPage), done})
		_, _, read, err := d.ReadPage(done, Addr{Die: 0, Block: 1, Page: p}, nil)
		if err != nil {
			t.Fatal(err)
		}
		served = append(served, service{done, read.Add(-tm.Transfer)})
		lag = read
	}
	if lag >= 50_000_000 {
		t.Fatalf("the laggard ran into the leader at %v; the test expects it to stay behind", lag)
	}
	for i, a := range served {
		for _, b := range served[i+1:] {
			if a.start < b.done && b.start < a.done {
				t.Fatalf("die operations [%v,%v) and [%v,%v) overlap", a.start, a.done, b.start, b.done)
			}
		}
	}
	if busy := d.Stats().PerDie[0].BusyTime; busy != time.Duration(cfg.Geometry.PagesPerBlock)*(2*tm.ProgramPage+tm.ReadPage) {
		t.Fatalf("die busy %v: not the sum of the operations served", busy)
	}
}

func TestDeviceStatsAndReset(t *testing.T) {
	cfg := testConfig()
	d := newTestDevice(t, cfg)
	data := pageData(cfg.Geometry.PageSize, 1)
	if _, err := d.ProgramPage(0, Addr{Die: 0, Block: 0, Page: 0}, data, PageMeta{}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := d.ReadPage(0, Addr{Die: 0, Block: 0, Page: 0}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.EraseBlock(0, BlockAddr{Die: 0, Block: 1}); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Programs != 1 || st.Reads != 1 || st.Erases != 1 {
		t.Fatalf("stats wrong: %+v", st)
	}
	if len(st.PerDie) != cfg.Geometry.Dies() {
		t.Fatalf("per-die stats length %d", len(st.PerDie))
	}
	if st.PerDie[0].Programs != 1 || st.PerDie[0].Reads != 1 || st.PerDie[0].Erases != 1 {
		t.Fatalf("die 0 stats wrong: %+v", st.PerDie[0])
	}
	if st.PerDie[0].BusyTime <= 0 {
		t.Fatal("die busy time not accounted")
	}
	if st.PerDie[0].TotalWear != 1 {
		t.Fatalf("wear = %d", st.PerDie[0].TotalWear)
	}
	if st.PerDie[0].FreeBlocks != cfg.Geometry.BlocksPerDie-1 {
		t.Fatalf("free blocks = %d", st.PerDie[0].FreeBlocks)
	}
	d.ResetCounters()
	st = d.Stats()
	if st.Programs != 0 || st.Reads != 0 || st.Erases != 0 || st.PerDie[0].Programs != 0 {
		t.Fatalf("counters not reset: %+v", st)
	}
	// Wear survives a counter reset.
	if st.PerDie[0].TotalWear != 1 {
		t.Fatalf("wear lost on reset: %d", st.PerDie[0].TotalWear)
	}
}

func TestDefaultTimingSane(t *testing.T) {
	tm := DefaultTiming()
	if tm.ReadPage <= 0 || tm.ProgramPage <= tm.ReadPage || tm.EraseBlock <= tm.ProgramPage {
		t.Fatalf("implausible NAND timing: %+v", tm)
	}
	if tm.Transfer <= 0 {
		t.Fatalf("implausible transfer timing: %+v", tm)
	}
	if tm.EraseBlock > 20*time.Millisecond {
		t.Fatalf("erase latency out of NAND range: %v", tm.EraseBlock)
	}
}
