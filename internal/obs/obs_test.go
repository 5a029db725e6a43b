package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"noftl/internal/sim"
)

func TestClassNamesRoundTrip(t *testing.T) {
	for c := Class(0); c < NumClasses; c++ {
		name := c.String()
		if name == "" || name == "unknown" {
			t.Fatalf("class %d has no name", c)
		}
		got, ok := ParseClass(name)
		if !ok || got != c {
			t.Fatalf("ParseClass(%q) = %v, %v; want %v, true", name, got, ok, c)
		}
	}
	if _, ok := ParseClass("nonsense"); ok {
		t.Fatal("ParseClass accepted an unknown name")
	}
	if Class(200).String() != "unknown" {
		t.Fatal("out-of-range class should stringify as unknown")
	}
}

func TestTracerRecordAndEvents(t *testing.T) {
	tr := NewTracer(8)
	for i := 0; i < 5; i++ {
		tr.Record(Event{Class: ClassFlash, Die: int32(i), Start: sim.Time(i), End: sim.Time(i + 1)})
	}
	if tr.Len() != 5 || tr.Recorded() != 5 || tr.Dropped() != 0 {
		t.Fatalf("len=%d recorded=%d dropped=%d; want 5,5,0", tr.Len(), tr.Recorded(), tr.Dropped())
	}
	evs := tr.Events()
	for i, e := range evs {
		if e.Seq != uint64(i) || e.Die != int32(i) {
			t.Fatalf("event %d out of order: %+v", i, e)
		}
	}
}

func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Record(Event{Class: ClassFlash, Die: int32(i)})
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if tr.Recorded() != 10 || tr.Dropped() != 6 {
		t.Fatalf("recorded=%d dropped=%d; want 10, 6", tr.Recorded(), tr.Dropped())
	}
	evs := tr.Events()
	// Oldest-first: dies 6,7,8,9 with ascending Seq.
	for i, e := range evs {
		if e.Die != int32(6+i) {
			t.Fatalf("wrapped events = %v; want dies 6..9 in order", evs)
		}
		if i > 0 && evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("non-monotonic Seq after wrap: %v", evs)
		}
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer should be disabled")
	}
	tr.Record(Event{Class: ClassFlash})
	if tr.Len() != 0 || tr.Recorded() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer should report empty everything")
	}
	if n, err := tr.Dump(&bytes.Buffer{}); n != 0 || err != nil {
		t.Fatalf("nil Dump = %d, %v", n, err)
	}
}

// TestDisabledPathAllocs pins the contract the hook sites rely on: when
// tracing is off (nil tracer), the guard plus a skipped Record allocate
// nothing.
func TestDisabledPathAllocs(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		if tr.Enabled() {
			tr.Record(Event{Class: ClassFlash, Die: 1, Start: 0, End: 1})
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled trace path allocated %.1f per op, want 0", allocs)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	tr := NewTracer(16)
	tr.Record(Event{Class: ClassHostWrite, Die: 3, Block: 7, Page: 11, Region: 1,
		Start: 100, End: 250, A: 42, B: -1})
	tr.Record(Event{Class: ClassGCStep, Op: GCStepForeground, Die: 3, Start: 250, End: 900})

	var buf bytes.Buffer
	n, err := tr.Dump(&buf)
	if err != nil || n != 2 {
		t.Fatalf("Dump = %d, %v", n, err)
	}
	if !strings.Contains(buf.String(), `"class":"host_write"`) {
		t.Fatalf("dump should spell class names: %s", buf.String())
	}

	got, err := LoadJSONL(&buf)
	if err != nil {
		t.Fatalf("LoadJSONL: %v", err)
	}
	want := tr.Events()
	if len(got) != len(want) {
		t.Fatalf("round trip length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("event %d round trip mismatch:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
	// Older tracers wrote a "wall" key; such a dump still loads.
	line := `{"seq":0,"class":"host_write","die":3,"block":7,"page":11,"region":1,"start":100,"end":250,"wall":5120,"a":42,"b":-1}`
	if old, err := LoadJSONL(strings.NewReader(line + "\n")); err != nil || len(old) != 1 || old[0] != want[0] {
		t.Fatalf("dump with a wall key loaded as %+v, %v; want %+v", old, err, want[0])
	}
}

func TestLoadJSONLRejectsBadInput(t *testing.T) {
	if _, err := LoadJSONL(strings.NewReader(`{"class":"no_such_class"}` + "\n")); err == nil {
		t.Fatal("unknown class should be an error")
	}
	if _, err := LoadJSONL(strings.NewReader("not json\n")); err == nil {
		t.Fatal("malformed line should be an error")
	}
}

func TestSummarizeGCInterference(t *testing.T) {
	us := func(n int64) sim.Time { return sim.Time(n * 1000) }
	var events []Event
	// Die 0: a GC step from 100µs to 600µs.
	events = append(events, Event{Class: ClassGCStep, Op: GCStepBackground, Die: 0,
		Start: us(100), End: us(600)})
	// Clean host writes on die 0 before the GC window: 50µs each.
	for i := int64(0); i < 10; i++ {
		events = append(events, Event{Class: ClassHostWrite, Die: 0,
			Start: us(i * 5), End: us(i*5 + 50)})
	}
	// Interfered host writes overlapping the GC window: 400µs each.
	for i := int64(0); i < 5; i++ {
		events = append(events, Event{Class: ClassHostWrite, Die: 0,
			Start: us(150 + i*10), End: us(550 + i*10)})
	}
	// Host writes on die 1 (no GC there): always clean.
	events = append(events, Event{Class: ClassHostWrite, Die: 1, Start: us(200), End: us(260)})
	// Flash commands, one per priority.
	events = append(events, Event{Class: ClassFlash, Prio: 1, Die: 0, Start: us(0), End: us(500)})
	events = append(events, Event{Class: ClassFlash, Prio: 2, Die: 1, Start: us(0), End: us(100)})

	s := Summarize(events)
	if s.GC.Interfered.Count != 5 {
		t.Fatalf("interfered count = %d, want 5", s.GC.Interfered.Count)
	}
	if s.GC.Clean.Count != 11 {
		t.Fatalf("clean count = %d, want 11", s.GC.Clean.Count)
	}
	if s.GC.Interfered.Mean <= s.GC.Clean.Mean {
		t.Fatalf("interfered mean %v should exceed clean mean %v",
			s.GC.Interfered.Mean, s.GC.Clean.Mean)
	}
	if s.GC.SlowdownX <= 1 {
		t.Fatalf("slowdown = %.2f, want > 1", s.GC.SlowdownX)
	}
	out := s.String()
	for _, want := range []string{"GC interference", "interfered:", "slowdown:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary report missing %q:\n%s", want, out)
		}
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Events != 0 || s.GC.Interfered.Count != 0 || s.GC.Clean.Count != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
	_ = s.String() // must not panic
}

func TestMergeWindows(t *testing.T) {
	ws := []window{{10, 20}, {15, 30}, {40, 50}, {50, 60}, {5, 8}}
	merged := mergeWindows(ws)
	if !reflect.DeepEqual(merged, []window{{5, 8}, {10, 30}, {40, 60}}) {
		t.Fatalf("merged = %+v, want [5,8) [10,30) [40,60)", merged)
	}
	if !overlaps(merged, 25, 26) || overlaps(merged, 31, 39) || !overlaps(merged, 0, 100) {
		t.Fatalf("overlaps misbehaving on %+v", merged)
	}
}

// TestSummarizeFoldsFromTheLastReset: the counts and host latencies cover the
// events after the last reset only; the GC-interference split covers every
// retained host write.
func TestSummarizeFoldsFromTheLastReset(t *testing.T) {
	tr := NewTracer(64)
	write := Event{Class: ClassHostWrite, Die: 0, Start: 0, End: 100}
	tr.Record(write)
	tr.Record(Event{Class: ClassReset, Die: -1})
	tr.Record(write)
	tr.Record(Event{Class: ClassReset, Die: -1})
	tr.Record(write)
	tr.Record(Event{Class: ClassFlash, Op: FlashProgram, Die: 2, Start: 0, End: 350})
	tr.Record(Event{Class: ClassBufWriteBack, Op: BufWriteBackGroup, Die: -1, A: 5})
	tr.Record(Event{Class: ClassBufWriteBack, Op: BufWriteBackSingle, Die: -1, A: 77})
	tr.Record(Event{Class: ClassWALAppend, Die: -1, A: 1, B: 40})
	tr.Record(Event{Class: ClassWALAppend, Die: -1, A: 2, B: 60})
	tr.Record(Event{Class: ClassGCStep, Op: GCStepForeground, Die: 2, Start: 0, End: 10})

	s := Summarize(tr.Events())
	want := map[string]int64{
		"Space.HostWrites": 1, "Device.PerDie[2].Programs": 1,
		"Buffer.Writebacks": 6, "Buffer.GroupFlushes": 1,
		"WAL.Appended": 2, "WAL.BytesAppended": 100, "Space.GCStalls": 1,
	}
	if !reflect.DeepEqual(s.Counts, want) {
		t.Fatalf("counts %v, want %v", s.Counts, want)
	}
	if s.Events != 7 || s.Partial || s.WriteLatency.Count != 1 || s.WriteLatency.Max != 100 {
		t.Fatalf("summary of the events after the last reset = %+v", s)
	}
	if n := s.GC.Interfered.Count + s.GC.Clean.Count; n != 3 {
		t.Fatalf("the GC split covers %d host writes, want all 3", n)
	}
	if out := s.String(); !strings.Contains(out, "\nSpace.HostWrites=1\n") || !strings.Contains(out, "\nWriteLatency.Count=1\nWriteLatency.Max=100ns\n") {
		t.Fatalf("report lacks the Stats() lines:\n%s", out)
	}
}

// TestSummarizeFlagsAPartialTrace: a ring that wrapped past every reset
// keeps no record of where the counts of Stats() start, and says so.
func TestSummarizeFlagsAPartialTrace(t *testing.T) {
	tr := NewTracer(4)
	tr.Record(Event{Class: ClassReset, Die: -1})
	for range 4 {
		tr.Record(Event{Class: ClassHostRead, Die: 0, Start: 0, End: 40})
	}
	s := Summarize(tr.Events())
	if !s.Partial || s.Counts["Space.HostReads"] != 4 {
		t.Fatalf("wrapped ring: partial %v, %d host reads; want true, 4", s.Partial, s.Counts["Space.HostReads"])
	}
	if !strings.Contains(s.String(), "partial:") {
		t.Fatalf("report does not say the trace is partial:\n%s", s.String())
	}
	// With the reset retained, the same reads are the whole story.
	tr = NewTracer(5)
	tr.Record(Event{Class: ClassReset, Die: -1})
	for range 4 {
		tr.Record(Event{Class: ClassHostRead, Die: 0, Start: 0, End: 40})
	}
	if s := Summarize(tr.Events()); s.Partial || s.Counts["Space.HostReads"] != 4 {
		t.Fatalf("ring holding its reset: partial %v, %d host reads; want false, 4", s.Partial, s.Counts["Space.HostReads"])
	}
}

// TestResetRoundTrips: a reset event survives a JSONL dump and load, by its
// class name.
func TestResetRoundTrips(t *testing.T) {
	events := []Event{
		{Seq: 0, Class: ClassHostWrite, Die: 0, Block: 1, Page: 2, Start: 5, End: 9, A: 3},
		{Seq: 1, Class: ClassReset, Die: -1, Block: -1, Page: -1, Region: -1, Start: 9, End: 9},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"class":"reset"`) {
		t.Fatalf("dump does not spell the reset class:\n%s", buf.String())
	}
	got, err := LoadJSONL(&buf)
	if err != nil || !reflect.DeepEqual(got, events) {
		t.Fatalf("round trip = %+v, %v; want %+v", got, err, events)
	}
}
