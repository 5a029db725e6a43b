package noftl_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"noftl"
	"noftl/internal/core"
	"noftl/internal/experiments"
	"noftl/internal/obs"
	"noftl/internal/tpcc"
)

// TestTracedRunDigest runs tiny TPC-C once per placement (Figure 3's setup, one
// driver, so the run is a function of its seed) with every event traced and
// compares a SHA-256 over every field of every event except Wall, the host's
// clock, with the digest recorded for the placement.  A change that must not
// alter what the engine does, in what order and at what virtual time, leaves
// both digests as they are.  On a mismatch it prints the run's event count per
// class beside the recorded one.
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
			digest, classes := tracedRunDigest(t, want.placement)
			if digest != want.digest {
				t.Errorf("digest %s, recorded %s\nevents per class: %s\nrecorded:          %s",
					digest, want.digest, classes, want.classes)
			}
		})
	}
}

// tracedRunDigest runs tiny TPC-C under placement with tracing on and returns
// the digest of its events and their count per class.
func tracedRunDigest(t *testing.T, placement tpcc.PlacementKind) (digest, classes string) {
	t.Helper()
	setup := experiments.TPCCSetup(experiments.ScaleTiny)
	setup.TPCC.Placement = placement
	if placement == tpcc.PlacementTraditional {
		setup.DB.Space.Mode = core.PlacementTraditional
	}
	setup.DB.Space.DisableBackgroundGC = true
	setup.DB.TraceBufferEvents = 1 << 16
	db, err := noftl.OpenConfig(setup.DB)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := tpcc.LoadAndRun(db, setup.TPCC); err != nil {
		t.Fatal(err)
	}
	if tr := db.Stats().Trace; tr.Dropped != 0 {
		t.Fatalf("the ring dropped %d of %d events: the digest would miss them", tr.Dropped, tr.Recorded)
	}
	var buf bytes.Buffer
	if _, err := db.Admin().TraceDump(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := obs.LoadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}

	h := sha256.New()
	var word [8]byte
	var perClass [obs.NumClasses]int
	for _, e := range events {
		perClass[e.Class]++
		for _, v := range [...]int64{int64(e.Seq), int64(e.Class), int64(e.Op), int64(e.Prio),
			int64(e.Die), int64(e.Block), int64(e.Page), int64(e.Region),
			int64(e.Start), int64(e.End), e.A, e.B} {
			binary.LittleEndian.PutUint64(word[:], uint64(v))
			h.Write(word[:])
		}
	}
	var b strings.Builder
	for c, n := range perClass {
		fmt.Fprintf(&b, "%s=%d ", obs.Class(c), n)
	}
	return hex.EncodeToString(h.Sum(nil)), strings.TrimSpace(b.String())
}
