package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"noftl"
)

// forceRun is one database with a few acknowledged single-page commits and
// one open transaction whose commit will force `rows` large rows at once.
type forceRun struct {
	db    *noftl.DB
	tx    *noftl.Tx
	acked []string // rows of the acknowledged commits
	big   []string // rows of the open transaction
}

// newForceRun builds the state every crash point of one case starts from; the
// engine is deterministic, so two runs with the same arguments issue the same
// device commands.  logDies is the size of the default region, which holds the
// log.
func newForceRun(t *testing.T, logDies, rows int) *forceRun {
	t.Helper()
	db, err := noftl.Open()
	if err != nil {
		t.Fatal(err)
	}
	if spare := db.Geometry().Dies() - logDies; spare > 0 {
		if err := db.CreateRegion(noftl.RegionSpec{Name: "rgRest", MaxChips: spare}); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := db.CreateTable("F", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	r := &forceRun{db: db}
	for i := 0; i < 3; i++ {
		row := fmt.Sprintf("acked-%d", i)
		if err := db.Update(func(tx *noftl.Tx) error {
			_, err := tbl.Insert(tx, []byte(row))
			return err
		}); err != nil {
			t.Fatal(err)
		}
		r.acked = append(r.acked, row)
	}
	r.tx = db.Begin()
	for i := 0; i < rows; i++ {
		row := fmt.Sprintf("big-%03d-", i) + string(bytes.Repeat([]byte{'a' + byte(i%26)}, 1500))
		if _, err := tbl.Insert(r.tx, []byte(row)); err != nil {
			t.Fatal(err)
		}
		r.big = append(r.big, row)
	}
	return r
}

// TestForceCrashPoints is exhaustive over the crash points of a multi-page
// commit force: for forces of 2, 3 and 9 log pages, on a log region of 2 and of
// 8 dies, the device is killed at every command of the force, with and without
// tearing the page it was programming.  The scheduler dispatches the batch die
// by die, so each crash point leaves a different subset of the force on flash
// — with holes, and with a torn page that is not the newest write.  Whatever
// the subset, recovery must succeed and bring back exactly the acknowledged
// commits; the transaction comes back only when its commit was acknowledged.
func TestForceCrashPoints(t *testing.T) {
	tornTails := map[bool]int{} // recoveries that dropped a torn tail, by whether a page was torn
	for _, logDies := range []int{2, 8} {
		for _, pages := range []int{2, 3, 9} {
			// Find the transaction size whose commit programs exactly `pages`
			// log pages (a commit issues no other device command here).
			rows := 0
			for n := 1; rows == 0; n++ {
				r := newForceRun(t, logDies, n)
				before := r.db.Stats().Device.Programs
				if _, err := r.tx.Commit(); err != nil {
					t.Fatal(err)
				}
				switch got := int(r.db.Stats().Device.Programs - before); {
				case got == pages:
					rows = n
				case got > pages:
					t.Fatalf("no transaction size forces exactly %d pages (%d rows force %d)", pages, n, got)
				}
				r.db.Close()
			}
			for _, tornBytes := range []int{0, 1800} {
				// Crash point pages+1 lies behind the force: the commit is
				// acknowledged and the crash is a clean power loss.
				for op := 1; op <= pages+1; op++ {
					name := fmt.Sprintf("dies=%d/pages=%d/torn=%d/op=%d", logDies, pages, tornBytes, op)
					r := newForceRun(t, logDies, rows)
					r.db.Admin().ArmFaults(noftl.FaultPlan{CrashAfterOps: int64(op), TornTailBytes: tornBytes})
					_, err := r.tx.Commit()
					want := r.acked
					if op > pages {
						if err != nil {
							t.Fatalf("%s: commit behind the crash point: %v", name, err)
						}
						want = append(want, r.big...)
					} else if !errors.Is(err, noftl.ErrCrashed) {
						t.Fatalf("%s: commit: err=%v, want ErrCrashed", name, err)
					}
					rec, err := noftl.Reopen(r.db.Crash())
					if err != nil {
						t.Fatalf("%s: reopen: %v", name, err)
					}
					if err := rec.Admin().VerifyIntegrity(); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					tbl, ok := rec.Table("F")
					if !ok {
						t.Fatalf("%s: table lost", name)
					}
					got := map[string]bool{}
					tx := rec.Begin()
					for _, row := range tbl.Rows(tx) {
						got[string(row)] = true
					}
					if err := tx.Err(); err != nil {
						t.Fatalf("%s: scan: %v", name, err)
					}
					tx.Abort()
					if len(got) != len(want) {
						t.Fatalf("%s: %d rows recovered, want %d", name, len(got), len(want))
					}
					for _, row := range want {
						if !got[row] {
							t.Fatalf("%s: row %.12q lost", name, row)
						}
					}
					if st, _ := rec.Recovery(); st.TornTail {
						tornTails[tornBytes > 0]++
					}
					rec.Close()
				}
			}
		}
	}
	// A crash point whose landed pages happen to be an LSN prefix leaves a
	// shorter log and no torn tail; most leave a hole.
	if tornTails[false] == 0 || tornTails[true] <= tornTails[false] {
		t.Errorf("torn tails seen: %d by holes alone, %d with a torn page; the force no longer stripes", tornTails[false], tornTails[true])
	}
}
