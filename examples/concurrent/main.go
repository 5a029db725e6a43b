// Concurrent-access example: N goroutines update the same database through
// db.Update, contending for an exclusive lock on a shared counter and for
// batch inserts into an append-only events table.
//
// It demonstrates the concurrency contract of the public API:
//
//   - *DB is safe for concurrent use: operations from many goroutines run one
//     at a time; transactions are cheap to start.
//   - Explicit locks (Tx.Lock) serialize read-modify-write cycles.  A lock
//     wait that would close a deadlock fails at once, and one that outlives
//     its budget of virtual time (WithLockTimeout) fails when it does; both
//     surface as ErrConflict — the caller's move is to abort and retry.
//   - A commit forces the log within its own operation, so concurrent
//     committers do not share a force: the Stats() snapshot shows no group
//     commits.
package main

import (
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"noftl"
)

const (
	workers    = 8
	increments = 25
	events     = 50
)

func main() {
	db, err := noftl.Open(noftl.WithLockTimeout(100 * time.Millisecond))
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	if err := db.Exec(`
		CREATE TABLE COUNTER (v VARCHAR(16));
		CREATE TABLE EVENTS  (v VARCHAR(64));
	`); err != nil {
		log.Fatal(err)
	}
	counter, _ := db.Table("COUNTER")
	eventsTbl, _ := db.Table("EVENTS")

	var rid noftl.RID
	if err := db.Update(func(tx *noftl.Tx) error {
		var err error
		rid, err = counter.Insert(tx, []byte("0"))
		return err
	}); err != nil {
		log.Fatal(err)
	}

	var retries atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()

			// Read-modify-write under an explicit exclusive lock.  On
			// ErrConflict (lost lock wait / deadlock victim) the transaction
			// has already been rolled back — just run it again.
			for i := 0; i < increments; i++ {
				for {
					err := db.Update(func(tx *noftl.Tx) error {
						if err := tx.Lock("counter", noftl.Exclusive); err != nil {
							return err
						}
						row, err := counter.Get(tx, rid)
						if err != nil {
							return err
						}
						var n int
						fmt.Sscanf(string(row), "%d", &n)
						return counter.Update(tx, rid, []byte(fmt.Sprintf("%d", n+1)))
					})
					if err == nil {
						break
					}
					if errors.Is(err, noftl.ErrConflict) {
						retries.Add(1)
						continue
					}
					log.Fatalf("worker %d: %v", w, err)
				}
			}

			// Append-only inserts need no explicit locks: the database runs one
			// operation at a time.
			batch := make([][]byte, events)
			for i := range batch {
				batch[i] = []byte(fmt.Sprintf("worker %d event %d", w, i))
			}
			if err := db.Update(func(tx *noftl.Tx) error {
				_, err := eventsTbl.InsertBatch(tx, batch)
				return err
			}); err != nil {
				log.Fatalf("worker %d insert batch: %v", w, err)
			}
		}(w)
	}
	wg.Wait()

	var final string
	if err := db.View(func(tx *noftl.Tx) error {
		row, err := counter.Get(tx, rid)
		final = string(row)
		return err
	}); err != nil {
		log.Fatal(err)
	}

	st := db.Stats()
	fmt.Printf("counter after %d x %d locked increments: %s (want %d; %d conflict retries)\n",
		workers, increments, final, workers*increments, retries.Load())
	fmt.Printf("events inserted: %d\n", eventsTbl.RowCount())
	fmt.Printf("lock waits: %d, lock timeouts: %d\n", st.Txn.LockWaits, st.Txn.LockTimeouts)
	fmt.Printf("WAL flushes: %d, group commits: %d, committers served: %d\n",
		st.WAL.Flushes, st.WAL.GroupCommits, st.WAL.GroupedTxns)
}
