package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"noftl/internal/flash"
	"noftl/internal/sim"
)

func newBatchTestManager(t *testing.T) *Manager {
	t.Helper()
	dev, err := flash.NewDevice(flash.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return NewManager(dev, DefaultOptions())
}

func TestWritePagesStripesAcrossDies(t *testing.T) {
	m := newBatchTestManager(t)
	geo := m.Device().Geometry()
	const n = 16
	payload := make([]byte, geo.PageSize)

	start := m.AllocateLPNs(n)
	writes := make([]PageWrite, n)
	for i := range writes {
		writes[i] = PageWrite{LPN: start + LPN(i), Data: payload}
	}
	end, err := m.WritePages(0, writes)
	if err != nil {
		t.Fatal(err)
	}

	dies := make(map[int]bool)
	for i := 0; i < n; i++ {
		addr, ok := m.Locate(start + LPN(i))
		if !ok {
			t.Fatalf("lpn %d not mapped after batch write", start+LPN(i))
		}
		dies[addr.Die] = true
	}
	if len(dies) != geo.Dies() {
		t.Errorf("batch of %d writes touched %d dies, want all %d (die striping)", n, len(dies), geo.Dies())
	}

	// Serial bound: n sequential programs, each waiting for the previous.
	// Striped over the 8 dies the batch takes about an eighth of it (7.9x);
	// a quarter is the least die parallelism must win.
	tm := m.Device().Timing()
	serial := sim.Time(0)
	for i := 0; i < n; i++ {
		serial = serial.Add(tm.Transfer + tm.ProgramPage)
	}
	if 4*end > serial {
		t.Errorf("batched write makespan %v, over a quarter of the serial %v: the dies did not overlap", end, serial)
	}
}

func TestReadPagesOverlapAndPartialErrors(t *testing.T) {
	m := newBatchTestManager(t)
	geo := m.Device().Geometry()
	const n = 8
	payload := make([]byte, geo.PageSize)
	payload[0] = 0xAB

	start := m.AllocateLPNs(n)
	writes := make([]PageWrite, n)
	for i := range writes {
		writes[i] = PageWrite{LPN: start + LPN(i), Data: payload}
	}
	if _, err := m.WritePages(0, writes); err != nil {
		t.Fatal(err)
	}
	m.ResetCounters()

	unmapped := start + LPN(n) + 1000
	lpns := make([]LPN, 0, n+1)
	for i := 0; i < n; i++ {
		lpns = append(lpns, start+LPN(i))
	}
	lpns = append(lpns, unmapped)

	reads, end := m.ReadPages(0, lpns, nil)
	if len(reads) != n+1 {
		t.Fatalf("got %d results, want %d", len(reads), n+1)
	}
	for i := 0; i < n; i++ {
		if reads[i].Err != nil {
			t.Fatalf("read %d: %v", i, reads[i].Err)
		}
		if reads[i].Data[0] != 0xAB {
			t.Errorf("read %d returned wrong data", i)
		}
		if LPN(reads[i].Meta.LPN) != lpns[i] {
			t.Errorf("read %d meta LPN %d, want %d", i, reads[i].Meta.LPN, lpns[i])
		}
	}
	if !errors.Is(reads[n].Err, ErrUnmappedPage) {
		t.Errorf("unmapped read error = %v, want ErrUnmappedPage", reads[n].Err)
	}

	// The batch was striped over every die by the preceding WritePages, so
	// the reads overlap: the makespan is about a seventh of the serial sum
	// (6.7x), and must be at most a quarter.
	tm := m.Device().Timing()
	serial := sim.Time(0)
	for i := 0; i < n; i++ {
		serial = serial.Add(tm.ReadPage + tm.Transfer)
	}
	if 4*end > serial {
		t.Errorf("batched read makespan %v, over a quarter of the serial %v: the dies did not overlap", end, serial)
	}
}

func TestWritePagesOverwriteKeepsAccounting(t *testing.T) {
	m := newBatchTestManager(t)
	geo := m.Device().Geometry()
	payload := make([]byte, geo.PageSize)
	const n = 8
	start := m.AllocateLPNs(n)
	writes := make([]PageWrite, n)
	for i := range writes {
		writes[i] = PageWrite{LPN: start + LPN(i), Data: payload}
	}
	if _, err := m.WritePages(0, writes); err != nil {
		t.Fatal(err)
	}
	// Overwriting the same logical pages must not grow validPages.
	if _, err := m.WritePages(0, writes); err != nil {
		t.Fatal(err)
	}
	stats, ok := m.Stats().RegionByName(DefaultRegionName)
	if !ok {
		t.Fatal("default region stats missing")
	}
	if stats.ValidPages != n {
		t.Errorf("validPages = %d after overwrite batch, want %d", stats.ValidPages, n)
	}
	if stats.HostWrites != 2*n {
		t.Errorf("hostWrites = %d, want %d", stats.HostWrites, 2*n)
	}
}

func TestWritePagesRegionFullWithoutSpill(t *testing.T) {
	dev, err := flash.NewDevice(flash.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.DisableSpill = true
	m := NewManager(dev, opts)
	r, err := m.CreateRegion(RegionSpec{Name: "tiny", MaxChips: 1, MaxSizeBytes: 2 * int64(dev.Geometry().PageSize)})
	if err != nil {
		t.Fatal(err)
	}

	payload := make([]byte, dev.Geometry().PageSize)
	const n = 4 // over the 2-page logical cap
	start := m.AllocateLPNs(n)
	writes := make([]PageWrite, n)
	for i := range writes {
		writes[i] = PageWrite{LPN: start + LPN(i), Data: payload, Hint: Hint{Region: r.ID()}}
	}
	if _, err := m.WritePages(0, writes); !errors.Is(err, ErrRegionFull) {
		t.Fatalf("over-capacity batch error = %v, want ErrRegionFull", err)
	}
	// Admission failed before any program was issued: nothing mapped.
	for i := 0; i < n; i++ {
		if _, ok := m.Locate(start + LPN(i)); ok {
			t.Errorf("lpn %d mapped after failed batch", start+LPN(i))
		}
	}
	// The aborted batch released its slots and its share of the region's
	// capacity: a batch that fits is admitted.
	if _, err := m.WritePages(0, writes[:2]); err != nil {
		t.Fatalf("batch within capacity after an aborted one: %v", err)
	}
	if err := m.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestSinglePageEntriesAreTheBatchPath drives the same seeded stream of
// writes, overwrites, reads and trims once through WritePage/ReadPage and
// once through one-element WritePages/ReadPages, on a small device at high
// utilisation with a capped region, so foreground GC, background GC and
// spill all fire.  Both runs must leave every page at the same physical
// address with the same statistics and report the same completion times.
func TestSinglePageEntriesAreTheBatchPath(t *testing.T) {
	type result struct {
		times  []sim.Time
		locs   []flash.Addr
		stats  string
		spills int64
	}
	run := func(single bool) result {
		dev := smallDevice(t, 4, 16, 8)
		opts := DefaultOptions()
		opts.GC.StepPages = 1 // background GC too slow to keep the foreground backstop idle
		m := NewManager(dev, opts)
		hot, err := m.CreateRegion(RegionSpec{Name: "hot", MaxChips: 1, MaxSizeBytes: 40 * int64(dev.Geometry().PageSize)})
		if err != nil {
			t.Fatal(err)
		}
		const universe = 320
		start := m.AllocateLPNs(universe)
		r := sim.NewRand(42)
		var res result
		now := sim.Time(0)
		for i := 0; i < 6000; i++ {
			lpn := start + LPN(r.Intn(universe))
			hint := Hint{ObjectID: 1}
			if lpn%3 == 0 {
				hint.Region = hot.ID() // a third of the pages aimed at a 40-page region: spills
			}
			var done sim.Time
			var err error
			switch op := r.Intn(10); {
			case op < 6:
				data := fillPage(dev, byte(i))
				if single {
					done, err = m.WritePage(now, lpn, data, hint)
				} else {
					done, err = m.WritePages(now, []PageWrite{{LPN: lpn, Data: data, Hint: hint}})
				}
			case op < 9:
				if _, ok := m.Locate(lpn); !ok {
					continue
				}
				if single {
					_, done, err = m.ReadPage(now, lpn, nil)
				} else {
					reads, end := m.ReadPages(now, []LPN{lpn}, nil)
					if done, err = reads[0].Done, reads[0].Err; end != done {
						t.Fatalf("op %d: one-page batch makespan %v, page done %v", i, end, done)
					}
				}
			default:
				if _, ok := m.Locate(lpn); ok {
					err = m.TrimPage(lpn)
				}
				done = now
			}
			if err != nil {
				t.Fatalf("op %d (single=%v): %v", i, single, err)
			}
			res.times = append(res.times, done)
			now = done
		}
		if err := m.VerifyIntegrity(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < universe; i++ {
			addr, _ := m.Locate(start + LPN(i))
			res.locs = append(res.locs, addr)
		}
		st := m.Stats()
		for _, rs := range st.Regions {
			res.spills += rs.SpilledWrites
		}
		if st.GCStalls == 0 || st.BGGCSteps == 0 || res.spills == 0 {
			t.Fatalf("stream did not exercise foreground GC (%d), background GC (%d) and spill (%d)",
				st.GCStalls, st.BGGCSteps, res.spills)
		}
		res.stats = fmt.Sprintf("%+v", st)
		return res
	}
	one, batch := run(true), run(false)
	if !reflect.DeepEqual(one.times, batch.times) {
		t.Error("completion times differ between WritePage/ReadPage and one-element batches")
	}
	if !reflect.DeepEqual(one.locs, batch.locs) {
		t.Error("physical locations differ between WritePage/ReadPage and one-element batches")
	}
	if one.stats != batch.stats {
		t.Errorf("statistics differ:\n single %s\n batch  %s", one.stats, batch.stats)
	}
}

// A foreground collection stalls the programs of its own die: the page of the
// same batch that goes to another die is programmed at the submission time,
// and the page behind the collection only after its erase.
func TestForegroundCollectionStallsItsOwnDieOnly(t *testing.T) {
	dev := smallDevice(t, 2, 16, 8)
	opts := DefaultOptions()
	opts.DisableBackgroundGC = true
	m := NewManager(dev, opts)
	hot, err := m.CreateRegion(RegionSpec{Name: "rgHot", MaxChips: 1})
	if err != nil {
		t.Fatal(err)
	}
	hotDie := m.dies[m.regionsByID[hot.ID()].dies[0]]
	ppb := dev.Geometry().PagesPerBlock

	// Overwrite a small hot set until the next write must collect the die.
	const pages = 16
	start := m.AllocateLPNs(pages)
	now := sim.Time(0)
	for i := 0; ; i++ {
		full := hotDie.hostOpen < 0 || hotDie.blocks[hotDie.hostOpen].nextPage >= ppb
		if full && hotDie.freeCount() <= opts.GCLowWaterBlocks {
			break
		}
		if i > 64*pages {
			t.Fatal("the hot die never reached the low watermark")
		}
		if now, err = m.WritePage(now, start+LPN(i%pages), fillPage(dev, byte(i)), Hint{Region: hot.ID()}); err != nil {
			t.Fatal(err)
		}
	}
	m.ResetCounters()

	cold := m.AllocateLPNs(1)
	end, err := m.WritePages(now, []PageWrite{
		{LPN: start, Data: fillPage(dev, 1), Hint: Hint{Region: hot.ID()}},
		{LPN: cold, Data: fillPage(dev, 2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	hs, _ := st.RegionByName("rgHot")
	def, _ := st.RegionByName(DefaultRegionName)
	if hs.GCStalls != 1 || hs.GCErases == 0 {
		t.Fatalf("the batch did not collect the hot die: %+v", hs)
	}
	tm := dev.Timing()
	program := tm.Transfer + tm.ProgramPage
	if def.WriteLatency.Max != program {
		t.Errorf("page on the other die took %v, want %v: it waited for a collection that is not its die's", def.WriteLatency.Max, program)
	}
	if hs.WriteLatency.Max < tm.EraseBlock+program {
		t.Errorf("page behind the collection took %v, less than an erase and a program", hs.WriteLatency.Max)
	}
	if end != now.Add(hs.WriteLatency.Max) {
		t.Errorf("makespan %v, want the stalled page's completion %v", end, now.Add(hs.WriteLatency.Max))
	}
	if hotDie.stall != 0 {
		t.Errorf("the die's stall outlived its batch: %v", hotDie.stall)
	}
}
