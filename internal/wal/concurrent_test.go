package wal_test

import (
	"fmt"
	"sync"
	"testing"

	"noftl"
)

// TestGroupCommitConcurrent has 8 goroutines commit 50 rounds of one-row
// transactions, every worker inserting its row before any of them commits.
// A log force runs within one commit, so no two committers share one: each
// commit forces the log once and GroupCommits stays 0.  Every committer finds
// its row durable, and a crash right after the last commit loses none of
// them.  Run it with -race.
func TestGroupCommitConcurrent(t *testing.T) {
	db, err := noftl.Open()
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("T", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const rounds = 50
	inserted := make([]sync.WaitGroup, rounds)
	for i := range inserted {
		inserted[i].Add(workers)
	}
	before := db.Stats()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			var err error
			// A worker that failed still passes every barrier, so the others
			// do not wait for it forever.
			for i := 0; i < rounds; i++ {
				tx := db.Begin()
				if err == nil {
					_, err = tbl.Insert(tx, []byte(fmt.Sprintf("w%d-r%d", id, i)))
				}
				inserted[i].Done()
				inserted[i].Wait()
				if err == nil {
					_, err = tx.Commit()
				} else {
					tx.Abort()
				}
			}
			if err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	const commits = workers * rounds
	after := db.Stats()
	if got := after.TxnCommitted - before.TxnCommitted; got != commits {
		t.Fatalf("%d commits, want %d", got, commits)
	}
	if got := after.WAL.Flushes - before.WAL.Flushes; got < commits {
		t.Fatalf("%d forces for %d commits, want one each", got, commits)
	}
	if after.WAL.GroupCommits != 0 {
		t.Fatalf("%d group commits, want none", after.WAL.GroupCommits)
	}
	db2, err := noftl.Reopen(db.Crash())
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	seen := make(map[string]bool)
	tbl2, _ := db2.Table("T")
	if err := db2.View(func(tx *noftl.Tx) error {
		for _, row := range tbl2.Rows(tx) {
			seen[string(row)] = true
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < rounds; i++ {
			if !seen[fmt.Sprintf("w%d-r%d", w, i)] {
				t.Fatalf("row w%d-r%d was committed and lost in the crash", w, i)
			}
		}
	}
	if len(seen) != commits {
		t.Fatalf("recovered %d rows, want %d", len(seen), commits)
	}
}
