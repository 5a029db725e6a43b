package tpcc

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"

	"noftl"
)

// TestCrashMidRunRecoversConsistent runs TPC-C the way the figures should be
// measured and never could be: with recoverable checkpoints (every 100
// commits), killed by a seeded device crash in the middle of the run, reopened
// — and consistent (Check).  Payment updates a warehouse and a district in one
// transaction, and NewOrder a district's D_NEXT_O_ID with the order's ORDER,
// NEW_ORDER and ORDERLINE rows, so the conditions fail as soon as recovery
// applies half of one, or misses or repeats a committed one on any row.
//
// A SHA-256 of what recovery reports and of each region's ID, name, dies and
// valid pages after the reopen must equal the one recorded for the case: the
// reopen recreates the regions from the checkpoint's region marks, each with
// its dies named, and maps every adopted page to the region of its die.
func TestCrashMidRunRecoversConsistent(t *testing.T) {
	for _, tc := range []struct {
		placement PlacementKind
		crashAt   int64 // device commands after the load
		digest    string
	}{
		{PlacementTraditional, 3000, "91be4b7f61a5af95ba8afc39bdfbc9e140e99a09177d462a179f91bc33eff0c1"},
		{PlacementRegions, 3000, "3d55de262eb82e2e1006448903967a59cc8ebab5fe6902ce7c886a0c758039d1"},
		{PlacementRegions, 9000, "5eba9bcedf67dfc8d5bb3e89d2d01c026a86a8e84638fd138f55a1da689b46bb"},
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
		db.Admin().ArmFaults(noftl.FaultPlan{CrashAfterOps: tc.crashAt})
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
		h := sha256.New()
		fmt.Fprintf(h, "%#v\n", rst)
		for _, r := range re.Stats().Space.Regions {
			fmt.Fprintf(h, "%d %s %v %d\n", r.ID, r.Name, r.Dies, r.ValidPages)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.digest {
			t.Errorf("%s, crash after %d commands: reopen digest %s, recorded %s\n%+v\n%v",
				tc.placement, tc.crashAt, got, tc.digest, rst, re.Stats().Space)
		}
		t.Logf("%s, crash after %d commands and %d commits: %d pages adopted, %d versions discarded, %d pages rewritten, %d committed / %d loser transactions redone",
			tc.placement, tc.crashAt, st.TxnCommitted, rst.AdoptedPages, rst.DiscardedVersions, rst.ReprogrammedPages, rst.CommittedTxns, rst.LoserTxns)
		if !rst.CheckpointFound || rst.AdoptedPages == 0 {
			t.Fatalf("%s: recovery adopted nothing: %+v", tc.placement, rst)
		}
		if err := Check(re); err != nil {
			t.Fatalf("%s, crash after %d commands: %v", tc.placement, tc.crashAt, err)
		}
		re.Close()
	}
}
