package noftl_test

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"noftl"
	"noftl/internal/flash"
	"noftl/internal/sim"
	"noftl/internal/tpcc"
)

// A program takes over the buffer it is handed (internal/flash): the pool,
// the log and the heap's batch insert must never write a buffer once they
// have handed it over.  These tests record a digest of every payload when it
// is programmed and check, at the end, every page still programmed in the
// same erase cycle; any write to a shared buffer, such as a mutation site
// that forgets Handle.Writable, changes a page behind the device's back.

// watchPrograms records the digest of every payload the device under db
// stores from now on.  The returned check reports each page that no longer
// holds the bytes it was programmed with, and returns how many it checked.
func watchPrograms(t *testing.T, db *noftl.DB) func() int {
	dev := noftl.DeviceOf(db)
	sums := make(map[flash.Addr][sha256.Size]byte)
	dev.OnProgram(func(a flash.Addr, data []byte) { sums[a] = sha256.Sum256(data) })
	return func() int {
		t.Helper()
		dev.OnProgram(nil)
		checked, changed := 0, 0
		for _, blk := range dev.Survey() {
			for _, pg := range blk.Pages {
				want, ok := sums[pg.Addr]
				if !ok {
					continue
				}
				// A page can be programmed again only after an erase, and
				// every program with a payload reached the hook: the digest
				// is of this erase cycle's program.
				data, _, _, err := dev.ReadPage(0, pg.Addr, nil)
				if err != nil {
					t.Fatal(err)
				}
				checked++
				if sha256.Sum256(data) != want {
					if changed++; changed <= 5 {
						t.Errorf("page %v (lpn %d, object %d, flags %#x) changed after it was programmed",
							pg.Addr, pg.Meta.LPN, pg.Meta.ObjectID, pg.Meta.Flags)
					}
				}
			}
		}
		if changed > 0 {
			t.Errorf("%d of %d programmed pages changed", changed, checked)
		}
		return checked
	}
}

// smallDevice returns a configuration whose device TPC-C and the KV mix fill
// far enough for foreground collection, with a pool small enough to evict.
func smallDevice(blocksPerDie, frames int) noftl.Config {
	cfg := noftl.DefaultConfig()
	cfg.Flash.Geometry = flash.Geometry{
		Channels: 2, DiesPerChannel: 2, PlanesPerDie: 1,
		BlocksPerDie: blocksPerDie, PagesPerBlock: 32, PageSize: 2048,
	}
	cfg.Space.DisableBackgroundGC = true
	cfg.BufferPoolPages = frames
	return cfg
}

// exercised fails the test unless the run evicted, checkpointed and
// collected in the foreground (with copybacks).
func exercised(t *testing.T, db *noftl.DB) {
	t.Helper()
	st := db.Stats()
	if st.Buffer.Evictions == 0 || st.WAL.Checkpoint.Count == 0 || st.Space.GCCopybacks == 0 || st.Space.GCErases == 0 {
		t.Fatalf("the run did not evict, checkpoint and collect: evictions %d, checkpoints %d, GC copybacks %d, erases %d",
			st.Buffer.Evictions, st.WAL.Checkpoint.Count, st.Space.GCCopybacks, st.Space.GCErases)
	}
}

func TestNoByteChangesAfterProgramTPCC(t *testing.T) {
	db, err := noftl.OpenConfig(smallDevice(48, 128))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	check := watchPrograms(t, db)
	cfg := tpcc.TinyConfig()
	cfg.Placement = tpcc.PlacementTraditional
	cfg.Workers = 1
	cfg.Transactions = 3000
	sch, err := tpcc.Setup(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tpcc.Load(db, sch, cfg); err != nil {
		t.Fatal(err)
	}
	cfg.CheckpointEvery = 250
	db.Admin().ArmFaults(noftl.FaultPlan{FailProgramEvery: 101})
	if _, err := tpcc.Run(db, sch, cfg); err != nil {
		t.Fatal(err)
	}
	exercised(t, db)
	if err := tpcc.Check(db); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d transactions, %d programmed pages checked", db.Stats().TxnCommitted, check())
}

func TestNoByteChangesAfterProgramKV(t *testing.T) {
	db, err := noftl.OpenConfig(smallDevice(24, 32))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	check := watchPrograms(t, db)
	tbl, err := db.CreateTable("KV", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := db.CreateIndex("KV_PK", "KV", nil, true, "")
	if err != nil {
		t.Fatal(err)
	}
	// HIST takes a small batch insert now and then: it fills the tail page
	// that the last checkpoint wrote.
	hist, err := db.CreateTable("HIST", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	const rows, rowBytes = 8000, 180
	row := func(k, version int) []byte {
		return []byte(fmt.Sprintf("%0*d", rowBytes, k*1_000_003+version))
	}
	versions := make([]int, rows)
	for lo := 0; lo < rows; lo += 250 {
		batch := make([][]byte, 250)
		for i := range batch {
			batch[i] = row(lo+i, 0)
		}
		if err := db.Update(func(tx *noftl.Tx) error {
			rids, err := tbl.InsertBatch(tx, batch)
			for i, rid := range rids {
				if err == nil {
					err = idx.Insert(tx, noftl.Key(uint32(lo+i)), rid)
				}
			}
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	db.Admin().ArmFaults(noftl.FaultPlan{FailProgramEvery: 53})
	r := sim.NewRand(42)
	for op := 1; op <= 6000; op++ {
		k := r.Intn(rows / 5)
		if r.Intn(10) == 0 {
			k = r.Intn(rows)
		}
		update := r.Intn(2) == 0
		if err := db.Update(func(tx *noftl.Tx) error {
			rid, found, err := idx.Lookup(tx, noftl.Key(uint32(k)))
			if err != nil || !found {
				return fmt.Errorf("key %d: found %v, %v", k, found, err)
			}
			if !update {
				_, err = tbl.Get(tx, rid)
				return err
			}
			return tbl.Update(tx, rid, row(k, versions[k]+1))
		}); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		if update {
			versions[k]++
		}
		if op%50 == 0 {
			if err := db.Update(func(tx *noftl.Tx) error {
				_, err := hist.InsertBatch(tx, [][]byte{row(op, 1), row(op, 2), row(op, 3)})
				return err
			}); err != nil {
				t.Fatal(err)
			}
		}
		if op%500 == 0 {
			if _, err := db.Checkpoint(db.SimulatedTime()); err != nil {
				t.Fatal(err)
			}
		}
	}
	exercised(t, db)
	if err := db.View(func(tx *noftl.Tx) error {
		for k := range versions {
			rid, _, err := idx.Lookup(tx, noftl.Key(uint32(k)))
			if err != nil {
				return err
			}
			got, err := tbl.Get(tx, rid)
			if err != nil {
				return err
			}
			if string(got) != string(row(k, versions[k])) {
				return fmt.Errorf("key %d reads %.20q…", k, got)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d programmed pages checked", check())
}
