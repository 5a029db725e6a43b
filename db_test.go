package noftl

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"noftl/internal/core"
	"noftl/internal/flash"
)

// smallConfig returns a configuration small enough for fast tests but large
// enough to exercise eviction and GC.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Flash.Geometry = flash.Geometry{
		Channels: 4, DiesPerChannel: 2, PlanesPerDie: 1,
		BlocksPerDie: 64, PagesPerBlock: 32, PageSize: 2048,
	}
	cfg.BufferPoolPages = 64
	return cfg
}

func TestOpenCloseAndPaperDDL(t *testing.T) {
	db, err := OpenConfig(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// The exact statements from §2 of the paper.
	err = db.Exec(`
		CREATE REGION rgHotTbl (MAX_CHIPS=4, MAX_CHANNELS=4, MAX_SIZE=1280M);
		CREATE TABLESPACE tsHotTbl (REGION=rgHotTbl, EXTENT SIZE 128K);
		CREATE TABLE T (t_id NUMBER(3)) TABLESPACE tsHotTbl;
	`)
	if err != nil {
		t.Fatal(err)
	}
	// The region is in the schema as declared, and owns 4 dies.
	if rs := db.Schema().Regions; len(rs) != 1 || rs[0].Name != "rgHotTbl" || rs[0].MaxChips != 4 ||
		rs[0].MaxChannels != 4 || rs[0].MaxSizeBytes != 1280<<20 {
		t.Fatalf("schema regions = %+v", rs)
	}
	st := db.Stats().Space
	rs, ok := st.RegionByName("rgHotTbl")
	if !ok || len(rs.Dies) != 4 {
		t.Fatalf("region dies = %v", rs.Dies)
	}
	// Table exists and is usable.
	tbl, ok := db.Table("T")
	if !ok {
		t.Fatal("table missing")
	}
	tx := db.Begin()
	rid, err := tbl.Insert(tx, []byte("hello flash"))
	if err != nil {
		t.Fatal(err)
	}
	row, err := tbl.Get(tx, rid)
	if err != nil || string(row) != "hello flash" {
		t.Fatalf("get: %q %v", row, err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Bad DDL surfaces an error.
	if err := db.Exec("CREATE NONSENSE x"); err == nil {
		t.Fatal("bad DDL accepted")
	}
	if err := db.Exec("CREATE TABLE X (a INTEGER) TABLESPACE nope"); err == nil {
		t.Fatal("unknown tablespace accepted")
	}
	if err := db.Exec("CREATE TABLESPACE ts2 (REGION=missing)"); err == nil {
		t.Fatal("unknown region accepted")
	}
	// Closing twice is fine.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTransactionsTablesIndexes(t *testing.T) {
	db, err := OpenConfig(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Exec(`
		CREATE TABLE CUSTOMER (c_id INTEGER, c_name VARCHAR(16), c_balance DECIMAL(12,2));
		CREATE UNIQUE INDEX C_IDX ON CUSTOMER (c_id);
	`); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("CUSTOMER")
	idx, ok := db.Index("C_IDX")
	if !ok || idx.Table() != "CUSTOMER" || !idx.Unique() {
		t.Fatalf("index meta wrong: %+v", idx)
	}

	// Insert 500 customers through transactions, indexed by id.
	const n = 500
	for i := 0; i < n; i++ {
		tx := db.Begin()
		if err := tx.Lock(fmt.Sprintf("CUSTOMER:%d", i), Exclusive); err != nil {
			t.Fatal(err)
		}
		row := []byte(fmt.Sprintf("cust-%05d|%s", i, bytes.Repeat([]byte{'d'}, 80)))
		rid, err := tbl.Insert(tx, row)
		if err != nil {
			t.Fatal(err)
		}
		if err := idx.Insert(tx, Key(uint32(i)), rid); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.RowCount() != n || idx.Entries() != n {
		t.Fatalf("counts: rows=%d entries=%d", tbl.RowCount(), idx.Entries())
	}
	// Point lookups via the index.
	tx := db.Begin()
	for _, id := range []uint32{0, 42, 499} {
		rid, found, err := idx.Lookup(tx, Key(id))
		if err != nil || !found {
			t.Fatalf("lookup %d: %v", id, err)
		}
		row, err := tbl.Get(tx, rid)
		if err != nil || !bytes.HasPrefix(row, []byte(fmt.Sprintf("cust-%05d", id))) {
			t.Fatalf("row %d wrong: %v", id, err)
		}
	}
	// Range scan over the index.
	count := 0
	for range idx.Range(tx, Key(100), Key(200)) {
		count++
	}
	if err := tx.Err(); err != nil {
		t.Fatal(err)
	}
	if count != 100 {
		t.Fatalf("range scan saw %d", count)
	}
	// Prefix scan and delete.
	if err := idx.Delete(tx, Key(100)); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := idx.Lookup(tx, Key(100)); found {
		t.Fatal("deleted key still found")
	}
	// Update a row through the table handle.
	rid, _, _ := idx.Lookup(tx, Key(42))
	newRow := []byte(fmt.Sprintf("cust-%05d|%s", 42, bytes.Repeat([]byte{'E'}, 80)))
	if err := tbl.Update(tx, rid, newRow); err != nil {
		t.Fatal(err)
	}
	got, _ := tbl.Get(tx, rid)
	if !bytes.Equal(got, newRow) {
		t.Fatal("update lost")
	}
	// Table scan.
	scanCount := 0
	for range tbl.Rows(tx) {
		scanCount++
	}
	if err := tx.Err(); err != nil {
		t.Fatal(err)
	}
	if scanCount != n {
		t.Fatalf("table scan saw %d", scanCount)
	}
	// Delete a row.
	if err := tbl.Delete(tx, rid); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Get(tx, rid); err == nil {
		t.Fatal("deleted row still readable")
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if tx.ResponseTime() <= 0 {
		t.Fatal("no response time accounted")
	}

	// Statistics reflect the work done.
	stats := db.Stats()
	if stats.TxnCommitted < n {
		t.Fatalf("committed = %d", stats.TxnCommitted)
	}
	if stats.Buffer.Hits == 0 {
		t.Fatal("no buffer hits recorded")
	}
	if stats.Space.HostWrites == 0 {
		t.Fatal("no flash writes recorded (WAL flushes at commit should write)")
	}
	if stats.Simulated <= 0 || stats.TPS() <= 0 {
		t.Fatalf("simulated time/TPS wrong: %v %v", stats.Simulated, stats.TPS())
	}
	if stats.String() == "" {
		t.Fatal("empty stats string")
	}
}

func TestPlacementHintsReachRegions(t *testing.T) {
	cfg := smallConfig()
	db, err := OpenConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Exec(`
		CREATE REGION rgHot (MAX_CHIPS=2);
		CREATE REGION rgCold (MAX_CHIPS=2);
		CREATE TABLESPACE tsHot (REGION=rgHot);
		CREATE TABLESPACE tsCold (REGION=rgCold);
		CREATE TABLE HOT (v VARCHAR(100)) TABLESPACE tsHot;
		CREATE TABLE COLD (v VARCHAR(100)) TABLESPACE tsCold;
	`); err != nil {
		t.Fatal(err)
	}
	hot, _ := db.Table("HOT")
	cold, _ := db.Table("COLD")
	tx := db.Begin()
	payload := bytes.Repeat([]byte{'p'}, 500)
	for i := 0; i < 200; i++ {
		if _, err := hot.Insert(tx, payload); err != nil {
			t.Fatal(err)
		}
		if _, err := cold.Insert(tx, payload); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.FlushAll(db.SimulatedTime()); err != nil {
		t.Fatal(err)
	}
	st := db.Stats().Space
	hotStats, _ := st.RegionByName("rgHot")
	coldStats, _ := st.RegionByName("rgCold")
	if hotStats.HostWrites == 0 || coldStats.HostWrites == 0 {
		t.Fatalf("writes did not reach both regions: hot=%d cold=%d", hotStats.HostWrites, coldStats.HostWrites)
	}
	// Per-object statistics were recorded.
	objs := db.ObjectStats()
	if len(objs) < 2 {
		t.Fatalf("object stats: %d objects", len(objs))
	}
	foundHot := false
	for _, o := range objs {
		if o.Name == "HOT" && o.Writes > 0 {
			foundHot = true
		}
	}
	if !foundHot {
		t.Fatalf("HOT object has no physical writes recorded: %+v", objs)
	}
}

func TestTraditionalModeDatabase(t *testing.T) {
	cfg := smallConfig()
	cfg.Space.Mode = core.PlacementTraditional
	db, err := OpenConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Exec(`
		CREATE REGION rgHot (MAX_CHIPS=2);
		CREATE TABLESPACE tsHot (REGION=rgHot);
		CREATE TABLE HOT (v VARCHAR(100)) TABLESPACE tsHot;
	`); err != nil {
		t.Fatal(err)
	}
	hot, _ := db.Table("HOT")
	tx := db.Begin()
	for i := 0; i < 100; i++ {
		if _, err := hot.Insert(tx, bytes.Repeat([]byte{'q'}, 400)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.FlushAll(db.SimulatedTime()); err != nil {
		t.Fatal(err)
	}
	st := db.Stats().Space
	hotStats, _ := st.RegionByName("rgHot")
	if hotStats.HostWrites != 0 {
		t.Fatalf("traditional mode placed %d writes in the hinted region", hotStats.HostWrites)
	}
}

func TestCheckpointAndDropTable(t *testing.T) {
	db, err := OpenConfig(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Exec("CREATE TABLE TMP (v VARCHAR(64))"); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("TMP")
	tx := db.Begin()
	for i := 0; i < 300; i++ {
		if _, err := tbl.Insert(tx, bytes.Repeat([]byte{'t'}, 60)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Checkpoint(db.SimulatedTime()); err != nil {
		t.Fatal(err)
	}
	validBefore := db.Stats().Space.ValidPages
	if validBefore == 0 {
		t.Fatal("checkpoint flushed nothing")
	}
	if err := db.Exec("DROP TABLE TMP"); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.Table("TMP"); ok {
		t.Fatal("table still visible after drop")
	}
	if db.Stats().Space.ValidPages >= validBefore {
		t.Fatal("drop did not trim pages")
	}
	if err := db.DropTable("TMP"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double drop: %v", err)
	}
	// Unknown objects are reported.
	if _, err := db.CreateIndex("X", "MISSING", []string{"a"}, false, ""); !errors.Is(err, ErrNotFound) {
		t.Fatalf("index on missing table: %v", err)
	}
	if _, err := db.CreateTable("Y", "missingTS", nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("table in missing tablespace: %v", err)
	}
}

// TestFailedCreateIndexLeavesNoTrace refuses a CREATE INDEX at the one step of
// DDL that writes — the root page, which with a pool of two dirty pages needs
// an eviction the armed device fails — and checks that the statement left
// nothing behind: no handle, no schema entry, checkpoints go on working, the
// retry succeeds and the index it creates survives a crash.
func TestFailedCreateIndexLeavesNoTrace(t *testing.T) {
	cfg := smallConfig()
	cfg.BufferPoolPages = 2
	db, err := OpenConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("T", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rids []RID
	err = db.Update(func(tx *Tx) error {
		for i := 0; i < 8; i++ {
			rid, err := tbl.Insert(tx, bytes.Repeat([]byte{byte('a' + i)}, 900))
			if err != nil {
				return err
			}
			rids = append(rids, rid)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	create := func() (*Index, error) { return db.CreateIndex("T_PK", "T", []string{"k"}, true, "") }

	db.Admin().ArmFaults(FaultPlan{FailProgramEvery: 1})
	if _, err := create(); err == nil {
		t.Fatal("CREATE INDEX succeeded although no page can be programmed")
	}
	db.Admin().ArmFaults(FaultPlan{})
	if _, ok := db.Index("T_PK"); ok {
		t.Fatal("the refused index has a handle")
	}
	if ix := db.Schema().Indexes; len(ix) != 0 {
		t.Fatalf("the refused index is in the schema: %+v", ix)
	}
	if _, err := db.Checkpoint(db.SimulatedTime()); err != nil {
		t.Fatalf("checkpoint after the refused CREATE INDEX: %v", err)
	}
	idx, err := create()
	if err != nil {
		t.Fatalf("retry of the refused CREATE INDEX: %v", err)
	}
	err = db.Update(func(tx *Tx) error {
		for i, rid := range rids {
			if err := idx.Insert(tx, Key(uint32(i)), rid); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	re, err := Reopen(db.Crash())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	ridx, ok := re.Index("T_PK")
	if !ok || ridx.Entries() != int64(len(rids)) {
		t.Fatalf("index after recovery: found=%v, schema %+v", ok, re.Schema().Indexes)
	}
	err = re.View(func(tx *Tx) error {
		for i, rid := range rids {
			if got, found, err := ridx.Lookup(tx, Key(uint32(i))); err != nil || !found || got != rid {
				return fmt.Errorf("entry %d after recovery: rid=%v found=%v err=%v, want %v", i, got, found, err, rid)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestResetStatistics churns a region-resident table on a device small
// enough to collect (checkpoints, evictions, rollbacks, foreground and
// background GC), resets, and then requires every number Stats reports to be
// zero but the gauges, which describe the state rather than count events.
// The data survives the reset.
func TestResetStatistics(t *testing.T) {
	cfg := smallConfig()
	cfg.Flash.Geometry.BlocksPerDie, cfg.Flash.Geometry.PagesPerBlock = 16, 16
	cfg.Flash.Geometry.Channels = 2
	cfg.BufferPoolPages = 32
	db, err := OpenConfig(cfg, WithLightCheckpoints(), WithTraceBuffer(0))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Exec("CREATE REGION rgR (MAX_CHIPS=2); CREATE TABLESPACE tsR (REGION=rgR); CREATE TABLE R (v VARCHAR(900)) TABLESPACE tsR"); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("R")
	row := bytes.Repeat([]byte{'r'}, 900)
	var rids []RID
	err = db.Update(func(tx *Tx) error {
		for range 150 {
			rid, err := tbl.Insert(tx, row)
			rids = append(rids, rid)
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for range 14 {
		err := db.Update(func(tx *Tx) error {
			for _, rid := range rids {
				if err := tbl.Update(tx, rid, row); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.Checkpoint(db.SimulatedTime()); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Update(func(*Tx) error { return errors.New("roll back") }); err == nil {
		t.Fatal("a failing Update committed")
	}
	if st := db.Stats(); st.Space.GCErases == 0 || st.Space.BGGCSteps == 0 || st.Buffer.Evictions == 0 || st.TxnAborted == 0 {
		t.Fatalf("the churn did not collect, evict and roll back: %+v", st)
	}
	db.ResetStatistics()
	// The gauges, by field name: what is mapped, resident, dirty, retained,
	// free, worn or owed to the GC watermarks; the log's LSNs, pages and live
	// bytes; the last checkpoint; the held and waited-for locks; the trace
	// ring's counts; and what names a region, a die or an object.
	gauges := make(map[string]bool)
	for _, name := range strings.Fields(`Frames Resident Dirty ValidPages RetainedPages CapacityPages SizePages
		FreeBlocks DieFreeBlocks BadBlocks MinErase MaxErase TotalErase MaxWear TotalWear
		BGDebtBlocks DiesInBGBand DiesAtLowWater BGVictimsOpen
		FlushedLSN Pages BytesLive LastLSN LastBytes LastPages LastAt LocksHeld LockWaiting
		Recorded Dropped Retained ID Dies Channels Die Channel GC`) {
		gauges[name] = true
	}
	WalkFields(db.Stats(), func(path string, leaf reflect.Value) {
		if !(leaf.CanInt() || leaf.CanUint() || leaf.CanFloat()) || leaf.IsZero() {
			return
		}
		for _, name := range strings.Split(path, ".") {
			if gauges[strings.TrimRight(name, "[]0123456789")] {
				return
			}
		}
		t.Errorf("%s = %v after ResetStatistics", path, leaf)
	})

	// Data survives the reset.
	n := 0
	err = db.View(func(tx *Tx) error {
		for range tbl.Rows(tx) {
			n++
		}
		return nil
	})
	if err != nil || n != len(rids) {
		t.Fatalf("%d rows after reset (%v), want %d", n, err, len(rids))
	}
}

// TestExecRegionGCPolicyDDL: a region's GC policy is chosen once, at CREATE
// REGION, and Schema() reads it back before and after a Reopen.  A region
// without the clause, and the default region, run the configuration's policy;
// ALTER REGION is not a statement.
func TestExecRegionGCPolicyDDL(t *testing.T) {
	cfg := smallConfig()
	cfg.Space.GC.StepPages = 4
	db, err := OpenConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = db.Exec(`CREATE REGION rgHot (MAX_CHIPS=2, GC_POLICY=COST_BENEFIT); CREATE REGION rgCold (MAX_CHIPS=1);`)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]GCPolicy{
		"rgHot":                {Victim: core.VictimCostBenefit, StepPages: 4},
		"rgCold":               cfg.Space.GC,
		core.DefaultRegionName: cfg.Space.GC,
	}
	check := func(db *DB, when string) {
		t.Helper()
		rs := db.Schema().Regions
		if len(rs) != 2 {
			t.Fatalf("%s: schema regions %+v", when, rs)
		}
		for _, r := range rs {
			if r.GC != want[r.Name] {
				t.Fatalf("%s: region %s has policy %+v, want %+v", when, r.Name, r.GC, want[r.Name])
			}
		}
		for _, r := range db.Stats().Space.Regions {
			if r.GC != want[r.Name] {
				t.Fatalf("%s: region %s runs policy %+v, want %+v", when, r.Name, r.GC, want[r.Name])
			}
		}
	}
	check(db, "after CREATE")
	re, err := Reopen(db.Crash())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	check(re, "after Reopen")

	var de *DDLError
	err = re.Exec(`ALTER REGION rgHot SET GC_POLICY=GREEDY;`)
	if !errors.As(err, &de) || de.Clause != "syntax" {
		t.Fatalf("ALTER REGION: %v", err)
	}
	err = re.Exec(`CREATE REGION r2 (MAX_CHIPS=1, GC_POLICY=LRU);`)
	if !errors.As(err, &de) || de.Clause != "GC_POLICY" {
		t.Fatalf("unknown GC policy: %v", err)
	}
	check(re, "after the refused statements")
}

// TestAdminGrowRegion grows a region by whole dies: a count below one is
// refused without a checkpoint, the dies come empty from DEFAULT, and crash
// recovery recreates the region on the same dies.
func TestAdminGrowRegion(t *testing.T) {
	db, err := OpenConfig(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Exec("CREATE REGION rgHot (MAX_CHIPS=2)"); err != nil {
		t.Fatal(err)
	}
	before := db.Stats()
	for _, n := range []int{0, -1} {
		if err := db.Admin().GrowRegion("rgHot", n); !errors.Is(err, core.ErrInvalidSpec) {
			t.Fatalf("GrowRegion by %d: %v", n, err)
		}
	}
	if st := db.Stats(); st.WAL.Checkpoint.Count != before.WAL.Checkpoint.Count {
		t.Fatal("a refused GrowRegion took a checkpoint")
	}

	if err := db.Admin().GrowRegion("rgHot", 2); err != nil {
		t.Fatal(err)
	}
	hot0, _ := before.Space.RegionByName("rgHot")
	def0, _ := before.Space.RegionByName(core.DefaultRegionName)
	after := db.Stats().Space
	hot, _ := after.RegionByName("rgHot")
	def, _ := after.RegionByName(core.DefaultRegionName)
	var moved []int
	for _, d := range hot.Dies {
		if !slices.Contains(hot0.Dies, d) {
			moved = append(moved, d)
		}
	}
	if len(moved) != 2 || len(hot.Dies) != 4 || hot.CapacityPages != 2*hot0.CapacityPages ||
		len(def.Dies) != len(def0.Dies)-2 {
		t.Fatalf("grow by 2: rgHot %v -> %v, DEFAULT %v -> %v", hot0.Dies, hot.Dies, def0.Dies, def.Dies)
	}
	for _, d := range moved {
		if !slices.Contains(def0.Dies, d) || slices.Contains(def.Dies, d) {
			t.Fatalf("die %d did not move from DEFAULT (%v -> %v)", d, def0.Dies, def.Dies)
		}
		if free := before.Device.PerDie[d].FreeBlocks; free != db.Geometry().BlocksPerDie {
			t.Fatalf("die %d moved with %d of %d blocks free", d, free, db.Geometry().BlocksPerDie)
		}
	}

	re, err := Reopen(db.Crash())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got, _ := re.Stats().Space.RegionByName("rgHot"); !slices.Equal(got.Dies, hot.Dies) {
		t.Fatalf("recovered rgHot on dies %v, want %v", got.Dies, hot.Dies)
	}
}

// TestBeginLockAbortAllocatesNothing: a transaction that takes the 16 locks
// of a NewOrder and aborts allocates nothing of its own.  Its Tx is cut from a
// chunk of 64 the database allocates, so 640 of them cost 10 allocations.
func TestBeginLockAbortAllocatesNothing(t *testing.T) {
	db, err := OpenConfig(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("S:1:%d", i)
	}
	run := func() {
		tx := db.BeginAt(0)
		for _, k := range keys {
			if err := tx.Lock(k, Exclusive); err != nil {
				t.Fatal(err)
			}
		}
		tx.Abort()
	}
	run() // the lock table keeps the state a key gets at its first lock
	const runs = 640
	if n := float64(mallocs(func() {
		for range runs {
			run()
		}
	})) / runs; n > 0.05 {
		t.Errorf("BeginAt, 16 Locks and Abort allocate %v times, want at most 0.05", n)
	}
}

// TestTxIsAtMost128Bytes: a Tx holds no room for lock references; the keys a
// transaction locks go on a list it borrows from the transaction manager.
func TestTxIsAtMost128Bytes(t *testing.T) {
	n := unsafe.Sizeof(Tx{})
	t.Logf("a Tx is %d bytes", n)
	if n > 128 {
		t.Errorf("a Tx is %d bytes, want at most 128", n)
	}
}

// mallocs returns the heap allocations fn makes, counted by runtime.MemStats
// (testing.AllocsPerRun truncates to a whole number per run).
func mallocs(fn func()) uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	fn()
	runtime.ReadMemStats(&ms)
	return ms.Mallocs - before
}

// TestRowInsertsAllocateNothing: a row insert is a batch of one, and one that
// opens a heap page allocates nothing either.  5 000 rows of 300 bytes open a
// page every 6 rows; what they allocate is the simulation's growth (the dies'
// timelines, the device's page store, the heap's page list), well below one
// allocation per page opened.
func TestRowInsertsAllocateNothing(t *testing.T) {
	db, err := OpenConfig(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("T", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]byte, 300)
	tx := db.Begin()
	defer tx.Abort()
	n := mallocs(func() {
		for range 5000 {
			if _, err := tbl.Insert(tx, row); err != nil {
				t.Fatal(err)
			}
		}
	})
	per := float64(n) / float64(tbl.PageCount())
	t.Logf("%d allocations, %.2f per page opened", n, per)
	if per > 0.5 {
		t.Errorf("inserts allocate %.2f times per page they open, want at most 0.5", per)
	}
}

// TestGetBatchOfResidentPagesAllocatesNothing: a batch read of resident pages
// allocates nothing of its own.  The database's slab adds a chunk per 64 KiB
// or less of rows it copies, and one per 1 024 row slots it hands out: for
// 50 rows of 100 bytes that is 0.125 chunks per call, and the call may add at
// most 0.1 to it.  Before the slots came from the slab, the result slice cost
// one allocation per call.
func TestGetBatchOfResidentPagesAllocatesNothing(t *testing.T) {
	db, err := OpenConfig(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("T", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]byte, 500)
	for i := range rows {
		rows[i] = make([]byte, 100)
	}
	var rids []RID
	if err := db.Update(func(tx *Tx) error {
		rids, err = tbl.InsertBatch(tx, rows)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	batch := rids[200:250] // 50 rows, 5 000 bytes, on a few pages
	tx := db.Begin()
	defer tx.Abort()
	if _, err := tbl.GetBatch(tx, batch); err != nil { // make the pages resident
		t.Fatal(err)
	}
	const runs = 200
	n := mallocs(func() {
		for range runs {
			if _, err := tbl.GetBatch(tx, batch); err != nil {
				t.Fatal(err)
			}
		}
	})
	per := float64(n) / runs
	slab := float64(len(batch))*100/(64<<10) + float64(len(batch))/1024
	t.Logf("a GetBatch of resident pages allocates %.3f times, the slab's chunks %.3f of them", per, slab)
	if per > slab+0.1 {
		t.Errorf("a GetBatch of resident pages allocates %.3f times, want at most %.3f", per, slab+0.1)
	}
}
