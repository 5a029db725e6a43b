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
	"noftl/internal/sim"
	"noftl/internal/tpcc"
)

var recordChunks = flag.Bool("record-chunks", false,
	"rewrite testdata/traced_run_chunks_*.txt from this run (TestTracedRunDigest)")

// digestChunk is the number of events each recorded chunk digest covers.
const digestChunk = 1024

// TestTracedRunDigest runs tiny TPC-C once per placement (Figure 3's setup, one
// driver, so the run is a function of its seed) with every event traced and
// compares a SHA-256 over every field of every event with the digest recorded
// for the placement.  A change that must not
// alter what the engine does, in what order and at what virtual time, leaves
// both digests as they are.  It also compares one SHA-256 per 1 024 events
// with the chunk digests recorded in testdata: on a mismatch it prints the
// first chunk that differs and the first event of that chunk in this run,
// beside the run's event count per class and the recorded one.
//
// The run's final Stats, dumped field by field (noftl.DumpFields), has a
// recorded digest too.  The same run with tracing off must end with the same
// Stats in every field but Trace: the tracer observes, it does not steer.
func TestTracedRunDigest(t *testing.T) {
	for _, want := range []struct {
		placement              tpcc.PlacementKind
		digest, classes, stats string
	}{
		{tpcc.PlacementTraditional, "0935fbe9cbfbe3609418cf17b5e622efdd8867a17388048cd88ff8eb039574d6",
			"flash=4342 host_write=3382 host_read=941 gc_step=8 gc_victim=11 gc_erase=11 wear=0 buf_miss=941 buf_evict=1238 buf_writeback=312 wal_append=35641 wal_sync=748 reset=2",
			"edd8890ee46598c026b4b6c91dd341b58c1f5b5727426078d69cde0618d7ba55"},
		{tpcc.PlacementRegions, "598a68114fdc040bd20aa8398cd3edb2b8f42957ef9aab8e7e9c230377ae7407",
			"flash=4353 host_write=3384 host_read=935 gc_step=34 gc_victim=34 gc_erase=34 wear=0 buf_miss=935 buf_evict=1232 buf_writeback=310 wal_append=35641 wal_sync=748 reset=2",
			"c0566c27961859d53fc737f054b7358bcf2d07d65ff81963c395700f9ebf4945"},
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

			if got := sha256Hex(noftl.DumpFields(traced)); got != want.stats {
				t.Errorf("Stats digest %s, recorded %s\n%s", got, want.stats, noftl.DumpFields(traced))
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

// sha256Hex returns the SHA-256 of s in hex.
func sha256Hex(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// digestEvents returns the SHA-256 of events (every field), one
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

// TestKVMixedRunDigest runs the KV mix (kvMix) and requires the SHA-256 of
// both instances' events (every field), of the recovery's statistics and of
// the final Stats, each dumped field by field, to equal the recorded ones.
func TestKVMixedRunDigest(t *testing.T) {
	const (
		wantEvents   = "78724caaaa412c9f8b4f6dbfc50d6e2c5531bde37d42315e10661b0e7fa4c464"
		wantRecovery = "3ef831b076ffa752b1a79a66aedddf12b2d2945efd264c881377402acfb154b5"
		wantStats    = "472fca543f3f66b390b4740cefe99a188f1fc87ccc5e15d71af1da6e2a7b6d3f"
	)
	before, after, rec := kvMix(t)
	first, _, _ := digestEvents(before.events)
	second, _, classes := digestEvents(after.events)
	recovery, stats := noftl.DumpFields(rec), noftl.DumpFields(after.stats)
	for _, d := range []struct{ what, got, want, dump string }{
		{"events", sha256Hex(first + second), wantEvents, classes},
		{"recovery", sha256Hex(recovery), wantRecovery, recovery},
		{"Stats", sha256Hex(stats), wantStats, stats},
	} {
		if d.got != d.want {
			t.Errorf("%s digest %s, recorded %s\n%s", d.what, d.got, d.want, d.dump)
		}
	}
}

// kvInstance is what one database instance of the KV mix ends with: its
// statistics and its traced events.
type kvInstance struct {
	stats  noftl.Stats
	events []obs.Event
}

// kvMix runs a tiny KV mix: point reads and same-size updates, half and
// half, of uniformly drawn keys over a table twice the size of the buffer
// pool, with the log on and a snapshot checkpoint every 200 transactions.
// Past the half it cuts the power, recovers, and runs the rest on the
// recovered database.  Both instances are traced; every row must match its
// last committed image after the recovery and at the end.  It returns the
// instance before the crash, the recovered one at the end and the recovery's
// statistics.
func kvMix(t *testing.T) (before, after kvInstance, rec noftl.RecoveryStats) {
	t.Helper()
	const (
		rows, rowBytes = 2000, 200
		ops, ckptEvery = 1600, 200
		crashAt        = 900 // 100 transactions past the last checkpoint
	)
	db, err := noftl.Open(noftl.WithBufferPoolPages(56), noftl.WithTraceBuffer(1<<17))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Exec("CREATE TABLE KV (k NUMBER(10), v VARCHAR(200)); CREATE UNIQUE INDEX KV_PK ON KV (k)"); err != nil {
		t.Fatal(err)
	}
	version := make([]int, rows)
	row := func(k int) []byte { return []byte(fmt.Sprintf("%0*d", rowBytes, k*1_000_003+version[k])) }
	tbl, _ := db.Table("KV")
	idx, _ := db.Index("KV_PK")
	for lo := 0; lo < rows; lo += 200 {
		err := db.Update(func(tx *noftl.Tx) error {
			batch := make([][]byte, 200)
			for i := range batch {
				batch[i] = row(lo + i)
			}
			rids, err := tbl.InsertBatch(tx, batch)
			for i := 0; err == nil && i < len(rids); i++ {
				err = idx.Insert(tx, noftl.Key(uint32(lo+i)), rids[i])
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Checkpoint(db.SimulatedTime()); err != nil {
		t.Fatal(err)
	}
	// get reads key k into *got.
	get := func(tx *noftl.Tx, k int, got *[]byte) error {
		rid, found, err := idx.Lookup(tx, noftl.Key(uint32(k)))
		if err == nil && !found {
			err = fmt.Errorf("key %d not found", k)
		}
		if err == nil {
			*got, err = tbl.Get(tx, rid)
		}
		return err
	}
	checkAll := func(when string) {
		t.Helper()
		err := db.View(func(tx *noftl.Tx) error {
			var got []byte
			for k := range rows {
				if err := get(tx, k, &got); err != nil {
					return err
				}
				if !bytes.Equal(got, row(k)) {
					return fmt.Errorf("key %d holds %.20q…, want %.20q…", k, got, row(k))
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	rng := sim.NewRand(7)
	run := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			k := rng.Intn(rows)
			var got []byte
			if rng.Intn(2) == 0 {
				err = db.View(func(tx *noftl.Tx) error { return get(tx, k, &got) })
				if err == nil && !bytes.Equal(got, row(k)) {
					err = fmt.Errorf("key %d: stale row", k)
				}
			} else {
				version[k]++
				err = db.Update(func(tx *noftl.Tx) error {
					rid, found, err := idx.Lookup(tx, noftl.Key(uint32(k)))
					if err == nil && !found {
						err = fmt.Errorf("key %d not found", k)
					}
					if err == nil {
						err = tbl.Update(tx, rid, row(k))
					}
					return err
				})
			}
			if err == nil && (i+1)%ckptEvery == 0 {
				_, err = db.Checkpoint(db.SimulatedTime())
			}
			if err != nil {
				t.Fatalf("transaction %d: %v", i, err)
			}
		}
	}
	// instance returns the database's statistics and traced events.
	instance := func() kvInstance {
		t.Helper()
		st := db.Stats()
		if st.Trace.Dropped != 0 {
			t.Fatalf("the ring dropped %d of %d events: the digest would miss them", st.Trace.Dropped, st.Trace.Recorded)
		}
		var buf bytes.Buffer
		if _, err := db.Admin().TraceDump(&buf); err != nil {
			t.Fatal(err)
		}
		ev, err := obs.LoadJSONL(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return kvInstance{st, ev}
	}

	run(0, crashAt)
	if st := db.Stats(); st.Buffer.Evictions == 0 || st.WAL.Checkpoint.Count == 0 {
		t.Fatalf("the mix neither evicts nor checkpoints: %d evictions, %d checkpoints", st.Buffer.Evictions, st.WAL.Checkpoint.Count)
	}
	before = instance()
	if db, err = noftl.Reopen(db.Crash()); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, _ = db.Table("KV")
	idx, _ = db.Index("KV_PK")
	rec, _ = db.Recovery()
	checkAll("after the recovery")
	run(crashAt, ops)
	checkAll("at the end")
	return before, instance(), rec
}
