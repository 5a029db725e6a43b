package tpcc

import (
	"errors"
	"testing"

	"noftl"
)

// consistent checks a recovered TPC-C database: the space manager's
// invariants, that every index addresses exactly the rows of its table, and
// consistency condition 1 of the specification (clause 3.3.2.1): a
// warehouse's W_YTD is the sum of its districts' D_YTD.  Payment updates both
// in one transaction, so the condition fails as soon as recovery applies half
// of one, or misses or repeats a committed one on either row.
func consistent(t *testing.T, db *noftl.DB) {
	t.Helper()
	if err := db.Admin().VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	for _, meta := range db.Schema().Indexes {
		idx, ok1 := db.Index(meta.Name)
		tbl, ok2 := db.Table(meta.Table)
		if !ok1 || !ok2 {
			t.Fatalf("index %s on %s: recovered %v/%v", meta.Name, meta.Table, ok1, ok2)
		}
		if idx.Entries() != tbl.RowCount() || tbl.RowCount() == 0 {
			t.Fatalf("index %s has %d entries, table %s has %d rows", meta.Name, idx.Entries(), meta.Table, tbl.RowCount())
		}
	}
	warehouses, _ := db.Table(TableWarehouse)
	districts, _ := db.Table(TableDistrict)
	wYTD, dYTD := make(map[uint32]int64), make(map[uint32]int64)
	err := db.View(func(tx *noftl.Tx) error {
		for _, row := range warehouses.Rows(tx) {
			w, err := DecodeWarehouse(row)
			if err != nil {
				return err
			}
			wYTD[w.WID] = w.YTD
		}
		for _, row := range districts.Rows(tx) {
			d, err := DecodeDistrict(row)
			if err != nil {
				return err
			}
			dYTD[d.WID] += d.YTD
		}
		return tx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(wYTD) == 0 {
		t.Fatal("no warehouse recovered")
	}
	for w, ytd := range wYTD {
		if ytd != dYTD[w] {
			t.Fatalf("warehouse %d: W_YTD = %d, sum of D_YTD = %d", w, ytd, dYTD[w])
		}
	}
}

// TestCrashMidRunRecoversConsistent runs TPC-C the way the figures should be
// measured and never could be: with recoverable checkpoints (every 100
// commits), killed by a seeded device crash in the middle of the run, reopened
// — and consistent.  It is the first TPC-C run Reopen accepts and the first
// consistency condition the tree asserts.
func TestCrashMidRunRecoversConsistent(t *testing.T) {
	for _, tc := range []struct {
		placement PlacementKind
		crashAt   int64 // device commands after the load
	}{
		{PlacementTraditional, 3000},
		{PlacementRegions, 3000},
		{PlacementRegions, 9000},
	} {
		db := testDB(t, tc.placement)
		cfg := TinyConfig()
		cfg.Placement = tc.placement
		cfg.Workers = 1 // the crash point is a pure function of the seed
		cfg.Transactions = 5000
		sch, err := Setup(db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := Load(db, sch, cfg); err != nil {
			t.Fatal(err)
		}
		// Only now: the die plan of Setup sizes the default region by the
		// checkpoint cadence, and with a log this small leaves it one die.
		cfg.CheckpointEvery = 100
		checkpoints := db.Stats().WAL.Checkpoint.Count
		db.Admin().ArmFaults(noftl.FaultPlan{Seed: cfg.Seed, CrashAfterOps: tc.crashAt})
		if _, err := Run(db, sch, cfg); !errors.Is(err, noftl.ErrCrashed) {
			t.Fatalf("%s, crash after %d commands: the run ended with %v, want the injected crash", tc.placement, tc.crashAt, err)
		}
		st := db.Stats()
		if st.WAL.Checkpoint.Count-checkpoints < 2 || st.TxnCommitted < 200 {
			t.Fatalf("%s: crashed after %d commits and %d checkpoints: not mid-run", tc.placement, st.TxnCommitted, st.WAL.Checkpoint.Count-checkpoints)
		}
		re, err := noftl.Reopen(db.Crash())
		if err != nil {
			t.Fatalf("%s, crash after %d commands: reopen: %v", tc.placement, tc.crashAt, err)
		}
		rst, _ := re.Recovery()
		t.Logf("%s, crash after %d commands and %d commits: %d pages adopted, %d versions discarded, %d pages rewritten, %d committed / %d loser transactions redone",
			tc.placement, tc.crashAt, st.TxnCommitted, rst.AdoptedPages, rst.DiscardedVersions, rst.ReprogrammedPages, rst.CommittedTxns, rst.LoserTxns)
		if !rst.CheckpointFound || rst.AdoptedPages == 0 {
			t.Fatalf("%s: recovery adopted nothing: %+v", tc.placement, rst)
		}
		consistent(t, re)
		re.Close()
	}
}
