package iosched

import (
	"testing"

	"noftl/internal/flash"
	"noftl/internal/sim"
)

// testDevice returns a small device with a deterministic geometry: 4
// channels x 2 dies, default SLC timing (read 40µs, program 350µs, erase
// 1.5ms, transfer 10µs).
func testDevice(t testing.TB) *flash.Device {
	t.Helper()
	dev, err := flash.NewDevice(flash.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// program fills pages [0,n) of block 0 on the given die and resets the
// device's virtual-time resources so tests start from an idle device at t=0.
func program(t testing.TB, dev *flash.Device, die, n int) {
	t.Helper()
	payload := make([]byte, dev.Geometry().PageSize)
	now := sim.Time(0)
	for p := 0; p < n; p++ {
		done, err := dev.ProgramPage(now, flash.Addr{Die: die, Block: 0, Page: p}, payload, flash.PageMeta{LPN: uint64(p)})
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
}

func resetTime(dev *flash.Device) { dev.ResetCounters() }

func TestSameDieSerialization(t *testing.T) {
	dev := testDevice(t)
	program(t, dev, 0, 2)
	resetTime(dev)
	s := New(dev)

	cs, end := s.Submit(0, []Request{
		{Op: OpReadPage, Addr: flash.Addr{Die: 0, Block: 0, Page: 0}, Priority: PrioHostRead},
		{Op: OpReadPage, Addr: flash.Addr{Die: 0, Block: 0, Page: 1}, Priority: PrioHostRead},
	})
	for i, c := range cs {
		if c.Err != nil {
			t.Fatalf("read %d: %v", i, c.Err)
		}
	}
	tm := dev.Timing()
	first := sim.Time(0).Add(tm.ReadPage + tm.Transfer)
	if cs[0].Done != first {
		t.Errorf("first read done at %v, want %v", cs[0].Done, first)
	}
	// The second read's sense must wait for the die: it starts when the
	// first sense finishes, so its completion is one full ReadPage later.
	second := first.Add(tm.ReadPage)
	if cs[1].Done != second {
		t.Errorf("second read done at %v, want %v (die serialized)", cs[1].Done, second)
	}
	if end != second {
		t.Errorf("batch makespan %v, want %v", end, second)
	}
}

func TestCrossDieOverlap(t *testing.T) {
	dev := testDevice(t)
	geo := dev.Geometry()
	// One page per die on four dies attached to four distinct channels.
	dies := []int{0, 1, 2, 3}
	for _, d := range dies {
		if geo.ChannelOfDie(d) == geo.ChannelOfDie((d+1)%4) {
			t.Fatalf("test expects dies 0..3 on distinct channels")
		}
	}
	program(t, dev, 0, len(dies)) // die 0 also holds the one-die layout below
	for _, d := range dies[1:] {
		program(t, dev, d, 1)
	}
	resetTime(dev)
	s := New(dev)

	var reqs, oneDie []Request
	for i, d := range dies {
		reqs = append(reqs, Request{Op: OpReadPage, Addr: flash.Addr{Die: d, Block: 0, Page: 0}, Priority: PrioHostRead})
		oneDie = append(oneDie, Request{Op: OpReadPage, Addr: flash.Addr{Die: 0, Block: 0, Page: i}, Priority: PrioHostRead})
	}
	cs, end := s.Submit(0, reqs)
	tm := dev.Timing()
	single := sim.Time(0).Add(tm.ReadPage + tm.Transfer)
	for i, c := range cs {
		if c.Err != nil {
			t.Fatalf("read %d: %v", i, c.Err)
		}
		if c.Done != single {
			t.Errorf("read on die %d done at %v, want %v (full overlap)", dies[i], c.Done, single)
		}
	}
	if end != single {
		t.Errorf("batch makespan %v, want %v", end, single)
	}
	// The same four reads issued serially (each waiting for the previous)
	// cost four times as much: the batch must beat that.
	serial := sim.Time(0)
	for range dies {
		serial = serial.Add(tm.ReadPage + tm.Transfer)
	}
	if end >= serial {
		t.Errorf("batched makespan %v not better than serial %v", end, serial)
	}
	// The same number of outstanding reads laid out on one die take at least
	// twice as long as striped over the dies.
	resetTime(dev)
	if _, oneDieEnd := New(dev).Submit(0, oneDie); oneDieEnd < 2*end {
		t.Errorf("%d reads on one die finish at %v, under 2x the %v of one read per die", len(dies), oneDieEnd, end)
	}
}

// TestBatchServesEachDieInSubmissionOrder: the class of a request orders
// nothing, so a GC copyback submitted ahead of a host read to the same die
// acquires the die first, and the read queues behind it.
func TestBatchServesEachDieInSubmissionOrder(t *testing.T) {
	dev := testDevice(t)
	program(t, dev, 0, 2)
	resetTime(dev)
	s := New(dev)
	cs, _ := s.Submit(0, []Request{
		{Op: OpCopyback, Addr: flash.Addr{Die: 0, Block: 0, Page: 0}, Dst: flash.Addr{Die: 0, Block: 1, Page: 0}, Priority: PrioGC},
		{Op: OpReadPage, Addr: flash.Addr{Die: 0, Block: 0, Page: 1}, Priority: PrioHostRead},
	})
	if cs[0].Err != nil || cs[1].Err != nil {
		t.Fatalf("unexpected errors: %v / %v", cs[0].Err, cs[1].Err)
	}
	tm := dev.Timing()
	wantCopy := sim.Time(0).Add(tm.ReadPage + tm.ProgramPage)
	if cs[0].Done != wantCopy {
		t.Errorf("copyback done at %v, want %v (first on the die)", cs[0].Done, wantCopy)
	}
	if cs[1].Done <= wantCopy {
		t.Errorf("host read done at %v, want after the copyback's %v", cs[1].Done, wantCopy)
	}
}

func TestProgramOrderPreservedWithinBatch(t *testing.T) {
	dev := testDevice(t)
	s := New(dev)
	payload := make([]byte, dev.Geometry().PageSize)
	var reqs []Request
	for p := 0; p < 4; p++ {
		reqs = append(reqs, Request{
			Op:   OpProgram,
			Addr: flash.Addr{Die: 0, Block: 0, Page: p},
			Data: payload, Meta: flash.PageMeta{LPN: uint64(p)},
			Priority: PrioHostWrite,
		})
	}
	cs, _ := s.Submit(0, reqs)
	for i, c := range cs {
		if c.Err != nil {
			t.Fatalf("program page %d: %v (sequential-programming order must be kept)", i, c.Err)
		}
	}
	for i := 1; i < len(cs); i++ {
		if cs[i].Done <= cs[i-1].Done {
			t.Errorf("program %d done %v not after program %d done %v", i, cs[i].Done, i-1, cs[i-1].Done)
		}
	}
}

// The dies serve in arrival order, so a batch of programs to one block may
// find the die's timeline full of another cursor's reservations.  Each program
// takes the earliest idle stretch that holds it, and because they are equally
// long they still complete in submission order, as the block requires.
func TestProgramOrderPreservedAcrossReservations(t *testing.T) {
	dev := testDevice(t)
	program(t, dev, 0, 1)
	resetTime(dev)
	s := New(dev)
	tm := dev.Timing()

	// A cursor ahead of the batch reads the die every 500µs: the gaps between
	// its senses hold one program each.
	read := Request{Op: OpReadPage, Addr: flash.Addr{Die: 0, Block: 0, Page: 0}, Priority: PrioHostRead}
	for i := 1; i <= 3; i++ {
		s.Submit(sim.Time(i*500_000), []Request{read})
	}
	payload := make([]byte, dev.Geometry().PageSize)
	var reqs []Request
	for p := 0; p < 6; p++ {
		reqs = append(reqs, Request{
			Op:   OpProgram,
			Addr: flash.Addr{Die: 0, Block: 1, Page: p},
			Data: payload, Priority: PrioHostWrite,
		})
	}
	cs, end := s.Submit(0, reqs)
	for i, c := range cs {
		if c.Err != nil {
			t.Fatalf("program page %d: %v", i, c.Err)
		}
		if i > 0 && c.Done < cs[i-1].Done.Add(tm.ProgramPage) {
			t.Errorf("program %d done %v overlaps program %d done %v", i, c.Done, i-1, cs[i-1].Done)
		}
	}
	if first := sim.Time(0).Add(tm.Transfer + tm.ProgramPage); cs[0].Done != first {
		t.Errorf("first program done %v, want %v", cs[0].Done, first)
	}
	// Submission-order FCFS would have queued all six behind the last read.
	if behind := sim.Time(1_500_000).Add(tm.ReadPage + 6*tm.ProgramPage); end >= behind {
		t.Errorf("makespan %v: the programs did not use the idle time before the reads (%v)", end, behind)
	}
}

// A cursor that lags 50 ms behind another's reservation on the same die is
// served when it arrives: its read costs a read, not the distance between the
// two cursors.
func TestLaggingReadIsServedOnArrival(t *testing.T) {
	dev := testDevice(t)
	program(t, dev, 0, 1)
	resetTime(dev)
	s := New(dev)
	tm := dev.Timing()

	const lead = sim.Time(50_000_000)
	if _, err := s.Erase(lead, flash.BlockAddr{Die: 0, Block: 1}, PrioGC); err != nil {
		t.Fatal(err)
	}
	cs, end := s.Submit(0, []Request{{Op: OpReadPage, Addr: flash.Addr{Die: 0, Block: 0, Page: 0}, Priority: PrioHostRead}})
	if cs[0].Err != nil {
		t.Fatal(cs[0].Err)
	}
	if want := sim.Time(0).Add(tm.ReadPage + tm.Transfer); cs[0].Done != want || end != want {
		t.Errorf("lagging read done %v (makespan %v), want %v", cs[0].Done, end, want)
	}
	// The horizon background GC aims at is still the end of all dispatched work.
	if want := lead.Add(tm.EraseBlock); s.DieIdleAt(0) != want {
		t.Errorf("DieIdleAt = %v, want %v", s.DieIdleAt(0), want)
	}
}

// NotBefore delays one command of a batch without delaying the others.
func TestNotBeforeDelaysOnlyItsRequest(t *testing.T) {
	dev := testDevice(t)
	s := New(dev)
	tm := dev.Timing()
	payload := make([]byte, dev.Geometry().PageSize)
	const stall = sim.Time(5_000_000)
	cs, end := s.Submit(100, []Request{
		{Op: OpProgram, Addr: flash.Addr{Die: 0, Block: 0, Page: 0}, Data: payload, Priority: PrioHostWrite, NotBefore: stall},
		{Op: OpProgram, Addr: flash.Addr{Die: 1, Block: 0, Page: 0}, Data: payload, Priority: PrioHostWrite, NotBefore: 50},
	})
	program := tm.Transfer + tm.ProgramPage
	if cs[0].Err != nil || cs[0].Done != stall.Add(program) {
		t.Errorf("stalled program done %v (%v), want %v", cs[0].Done, cs[0].Err, stall.Add(program))
	}
	if cs[1].Err != nil || cs[1].Done != sim.Time(100).Add(program) {
		t.Errorf("other program done %v (%v), want %v: an earlier NotBefore must not move it", cs[1].Done, cs[1].Err, sim.Time(100).Add(program))
	}
	if end != cs[0].Done {
		t.Errorf("makespan %v, want %v", end, cs[0].Done)
	}
	// A command is served from when it could be issued.
	if lat := cs[0].Done.Sub(stall); lat != program {
		t.Errorf("stalled program took %v from NotBefore, want %v", lat, program)
	}
}

func TestSchedulerMetrics(t *testing.T) {
	dev := testDevice(t)
	program(t, dev, 0, 2)
	resetTime(dev)
	s := New(dev)
	s.Submit(0, []Request{{Op: OpReadPage, Addr: flash.Addr{Die: 0, Block: 0, Page: 0}, Priority: PrioHostRead}})
	s.Submit(0, []Request{
		{Op: OpReadPage, Addr: flash.Addr{Die: 0, Block: 0, Page: 1}, Priority: PrioHostRead},
		{Op: OpReadPage, Addr: flash.Addr{Die: 1, Block: 0, Page: 0}, Priority: PrioHostRead},
	})
	if c := s.Counts(); c != (Counts{Batches: 2, MaxBatch: 2}) {
		t.Errorf("counts = %+v, want 2 batches, the largest of 2", c)
	}
	if s.DieIdleAt(0) == 0 {
		t.Fatal("die 0 served two reads and is idle at 0")
	}
	s.ResetCounters()
	if c := s.Counts(); c != (Counts{}) {
		t.Errorf("ResetCounters left %+v", c)
	}
	for d := range dev.Geometry().Dies() {
		if at := s.DieIdleAt(d); at != 0 {
			t.Errorf("ResetCounters left die %d idle at %v, want 0 with the device's timelines", d, at)
		}
	}
}

// BenchmarkBatchedVsSerialReads demonstrates the scheduler's virtual-time
// win: the same N reads, striped over every die, complete in far less
// simulated time when submitted as one batch than when issued serially.  The
// simulated times are reported as metrics (ns of virtual time per read).
func BenchmarkBatchedVsSerialReads(b *testing.B) {
	dev := testDevice(b)
	geo := dev.Geometry()
	nDies := geo.Dies()
	perDie := 8
	for d := 0; d < nDies; d++ {
		program(b, dev, d, perDie)
	}
	resetTime(dev)
	s := New(dev)

	var reqs []Request
	for p := 0; p < perDie; p++ {
		for d := 0; d < nDies; d++ {
			reqs = append(reqs, Request{Op: OpReadPage, Addr: flash.Addr{Die: d, Block: 0, Page: p}, Priority: PrioHostRead})
		}
	}

	var batched, serial sim.Time
	for i := 0; i < b.N; i++ {
		resetTime(dev)
		_, batched = s.Submit(0, reqs)

		resetTime(dev)
		now := sim.Time(0)
		for _, r := range reqs {
			_, _, done, err := dev.ReadPage(now, r.Addr, nil)
			if err != nil {
				b.Fatal(err)
			}
			now = done
		}
		serial = now
	}
	b.ReportMetric(float64(batched)/float64(len(reqs)), "virt-ns/read-batched")
	b.ReportMetric(float64(serial)/float64(len(reqs)), "virt-ns/read-serial")
	b.ReportMetric(float64(serial)/float64(batched), "speedup-x")
	if batched >= serial {
		b.Fatalf("batched makespan %v not better than serial %v", batched, serial)
	}
}

func TestDieIdleAtTracksDispatchedWork(t *testing.T) {
	dev := testDevice(t)
	program(t, dev, 0, 2)
	resetTime(dev)
	s := New(dev)
	if s.DieIdleAt(0) != 0 || s.DieIdleAt(1) != 0 {
		t.Fatal("fresh scheduler should report every die idle at t=0")
	}
	cs, end := s.Submit(0, []Request{
		{Op: OpReadPage, Addr: flash.Addr{Die: 0, Block: 0, Page: 0}, Priority: PrioHostRead},
		{Op: OpReadPage, Addr: flash.Addr{Die: 0, Block: 0, Page: 1}, Priority: PrioHostRead},
	})
	for _, c := range cs {
		if c.Err != nil {
			t.Fatal(c.Err)
		}
	}
	if got := s.DieIdleAt(0); got != end {
		t.Fatalf("die 0 idle at %v, want batch end %v", got, end)
	}
	if got := s.DieIdleAt(1); got != 0 {
		t.Fatalf("die 1 was never used, idle at %v, want 0", got)
	}
	// Out-of-range dies are reported idle instead of panicking.
	if s.DieIdleAt(-1) != 0 || s.DieIdleAt(10_000) != 0 {
		t.Fatal("out-of-range dies should report idle at 0")
	}
}

// TestSubmitAppendOfOneAllocatesNothing: a batch of one request, a read into a
// buffer of the caller's, appended to a completion slice with room, allocates
// nothing; the completion lands after what the slice held.
func TestSubmitAppendOfOneAllocatesNothing(t *testing.T) {
	dev := testDevice(t)
	program(t, dev, 0, 1)
	s := New(dev)
	reqs := []Request{{Op: OpReadPage, Addr: flash.Addr{Die: 0, Block: 0, Page: 0},
		Buf: make([]byte, dev.Geometry().PageSize), Priority: PrioHostRead}}
	done := make([]Completion, 1, 2)
	if n := testing.AllocsPerRun(100, func() {
		cs, _ := s.SubmitAppend(done[:1], 0, reqs)
		if len(cs) != 2 || cs[1].Err != nil {
			t.Fatalf("completions %+v", cs)
		}
	}); n != 0 {
		t.Errorf("SubmitAppend of one request allocates %v times, want 0", n)
	}
}
