package noftl_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"noftl"
	"noftl/internal/core"
	"noftl/internal/experiments"
	"noftl/internal/obs"
	"noftl/internal/tpcc"
)

var recordChunks = flag.Bool("record-chunks", false,
	"rewrite testdata/traced_run_chunks_*.txt from this run (TestTracedRunDigest)")

// digestChunk is the number of events each recorded chunk digest covers.
const digestChunk = 1024

// TestTracedRunDigest runs tiny TPC-C once per placement (Figure 3's setup, one
// driver, so the run is a function of its seed) with every event traced and
// compares a SHA-256 over every field of every event except Wall, the host's
// clock, with the digest recorded for the placement.  A change that must not
// alter what the engine does, in what order and at what virtual time, leaves
// both digests as they are.  It also compares one SHA-256 per 1 024 events
// with the chunk digests recorded in testdata: on a mismatch it prints the
// first chunk that differs and the first event of that chunk in this run,
// beside the run's event count per class and the recorded one.
//
// The same run with tracing off must end with the same Stats in every field
// but Trace: the tracer observes, it does not steer.
func TestTracedRunDigest(t *testing.T) {
	for _, want := range []struct {
		placement       tpcc.PlacementKind
		digest, classes string
	}{
		{tpcc.PlacementTraditional, "4b241ecb8bcede5b951cf604b2c2654ba2767a02d4de7bfe1a7c481565c4f491",
			"flash=4342 host_write=3382 host_read=941 gc_step=8 gc_victim=11 gc_erase=11 wear=0 buf_miss=941 buf_evict=1238 buf_writeback=312 wal_append=35641 wal_sync=748"},
		{tpcc.PlacementRegions, "92e5e0c19735313f6b9e812d978b9aac9f5ca6ddcadfa1a4ac14dc2fad5a9860",
			"flash=4353 host_write=3384 host_read=935 gc_step=34 gc_victim=34 gc_erase=34 wear=0 buf_miss=935 buf_evict=1232 buf_writeback=310 wal_append=35641 wal_sync=748"},
	} {
		t.Run(want.placement.String(), func(t *testing.T) {
			traced, events := tinyTPCCStats(t, want.placement, true)
			digest, chunks, classes := digestEvents(events)
			if digest != want.digest {
				t.Errorf("digest %s, recorded %s\nevents per class: %s\nrecorded:          %s",
					digest, want.digest, classes, want.classes)
			}
			file := filepath.Join("testdata", "traced_run_chunks_"+want.placement.String()+".txt")
			if *recordChunks {
				if err := os.WriteFile(file, []byte(strings.Join(chunks, "\n")+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			recorded, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			if i := firstDifference(chunks, strings.Fields(string(recorded))); i >= 0 {
				e := events[min(i*digestChunk, len(events)-1)]
				t.Errorf("chunk %d of %d (events %d-%d) is the first to differ from %s\nits first event in this run: %+v\nevents per class: %s\nrecorded:          %s",
					i, len(chunks), i*digestChunk, min((i+1)*digestChunk, len(events))-1, file, e, classes, want.classes)
			}

			untraced, _ := tinyTPCCStats(t, want.placement, false)
			traced.Trace = noftl.TraceStats{}
			if !reflect.DeepEqual(traced, untraced) {
				t.Errorf("tracing moved the run's statistics:\ntraced   %+v\nuntraced %+v", traced, untraced)
			}
		})
	}
}

// tinyTPCCStats loads and runs tiny TPC-C under placement, traced or not, and
// returns the database's statistics at the end and the traced events.
func tinyTPCCStats(t *testing.T, placement tpcc.PlacementKind, traced bool) (noftl.Stats, []obs.Event) {
	t.Helper()
	setup := experiments.TPCCSetup(experiments.ScaleTiny)
	setup.TPCC.Placement = placement
	if placement == tpcc.PlacementTraditional {
		setup.DB.Space.Mode = core.PlacementTraditional
	}
	setup.DB.Space.DisableBackgroundGC = true
	if traced {
		setup.DB.TraceBufferEvents = 1 << 16
	}
	db, err := noftl.OpenConfig(setup.DB)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := tpcc.LoadAndRun(db, setup.TPCC); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if !traced {
		return st, nil
	}
	if st.Trace.Dropped != 0 {
		t.Fatalf("the ring dropped %d of %d events: the digest would miss them", st.Trace.Dropped, st.Trace.Recorded)
	}
	var buf bytes.Buffer
	if _, err := db.Admin().TraceDump(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := obs.LoadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return st, events
}

// digestEvents returns the SHA-256 of events (every field but Wall), one
// SHA-256 per digestChunk events, and the count of events per class.
func digestEvents(events []obs.Event) (digest string, chunks []string, classes string) {
	h, chunk := sha256.New(), sha256.New()
	var word [8]byte
	var perClass [obs.NumClasses]int
	for i, e := range events {
		perClass[e.Class]++
		for _, v := range [...]int64{int64(e.Seq), int64(e.Class), int64(e.Op), int64(e.Prio),
			int64(e.Die), int64(e.Block), int64(e.Page), int64(e.Region),
			int64(e.Start), int64(e.End), e.A, e.B} {
			binary.LittleEndian.PutUint64(word[:], uint64(v))
			h.Write(word[:])
			chunk.Write(word[:])
		}
		if (i+1)%digestChunk == 0 || i == len(events)-1 {
			chunks = append(chunks, hex.EncodeToString(chunk.Sum(nil)))
			chunk.Reset()
		}
	}
	var b strings.Builder
	for c, n := range perClass {
		fmt.Fprintf(&b, "%s=%d ", obs.Class(c), n)
	}
	return hex.EncodeToString(h.Sum(nil)), chunks, strings.TrimSpace(b.String())
}

// firstDifference returns the first index at which got and want differ, or -1
// when they are equal.
func firstDifference(got, want []string) int {
	for i := range max(len(got), len(want)) {
		if i >= len(got) || i >= len(want) || got[i] != want[i] {
			return i
		}
	}
	return -1
}
