package txn_test

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"noftl"
	"noftl/internal/sim"
)

// The lock manager takes no lock of its own: it runs under the database's
// baton, and a waiter parks on it.  These tests drive it from many goroutines
// through the public API.  Run them with -race.

func openDB(t *testing.T, lockTimeout time.Duration) *noftl.DB {
	t.Helper()
	db, err := noftl.Open(noftl.WithLockTimeout(lockTimeout))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// TestLockManagerConcurrentCounter has 16 goroutines increment a plain
// variable 100 times each, every increment inside a transaction that holds
// one key exclusively: the lock alone keeps increments from being lost.
func TestLockManagerConcurrentCounter(t *testing.T) {
	db := openDB(t, 5*time.Second)
	counter := 0
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := db.Update(func(tx *noftl.Tx) error {
					if err := tx.Lock("counter", noftl.Exclusive); err != nil {
						return err
					}
					counter++
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if counter != 1600 {
		t.Fatalf("counter = %d, want 1600 (lost updates)", counter)
	}
	if st := db.Stats().Txn; st.LocksHeld != 0 || st.LockWaiting != 0 || st.LockTimeouts != 0 {
		t.Fatalf("after the run: %+v", st)
	}
}

// TestConcurrentTransactionsSerializeOnLock has 8 goroutines each move a
// balance row up by one, 50 times, locking the account before they read it:
// the row ends at 400 and every transaction commits.
func TestConcurrentTransactionsSerializeOnLock(t *testing.T) {
	db := openDB(t, 5*time.Second)
	tbl, err := db.CreateTable("ACCOUNT", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rid noftl.RID
	if err := db.Update(func(tx *noftl.Tx) error {
		rid, err = tbl.Insert(tx, make([]byte, 8))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	before := db.Stats().TxnCommitted
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if err := db.Update(func(tx *noftl.Tx) error {
					if err := tx.Lock("account:1", noftl.Exclusive); err != nil {
						return err
					}
					row, err := tbl.Get(tx, rid)
					if err != nil {
						return err
					}
					binary.LittleEndian.PutUint64(row, binary.LittleEndian.Uint64(row)+1)
					return tbl.Update(tx, rid, row)
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	var balance uint64
	if err := db.View(func(tx *noftl.Tx) error {
		row, err := tbl.Get(tx, rid)
		balance = binary.LittleEndian.Uint64(row)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if balance != 400 {
		t.Fatalf("balance = %d, want 400", balance)
	}
	if n := db.Stats().TxnCommitted - before; n != 400 {
		t.Fatalf("commits = %d, want 400", n)
	}
}

// TestLockManagerShardedStress hammers the lock table from 8 goroutines over
// 64 keys, each transaction taking up to three in ascending order (no
// deadlocks) in a random mode.  Nothing stays held or waiting, no wait times
// out, and an acquisition counts at most one wait however often it is woken.
func TestLockManagerShardedStress(t *testing.T) {
	db := openDB(t, 200*time.Millisecond)
	const workers = 8
	const rounds = 300
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = string(rune('a'+i%26)) + string(rune('0'+i/26))
	}
	var wg sync.WaitGroup
	var acquisitions atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			r := sim.NewRand(id + 1)
			for i := 0; i < rounds; i++ {
				if err := db.Update(func(tx *noftl.Tx) error {
					lo := r.Intn(len(keys) - 3)
					for j := lo; j < lo+1+r.Intn(3); j++ {
						mode := noftl.Shared
						if r.Intn(2) == 0 {
							mode = noftl.Exclusive
						}
						acquisitions.Add(1)
						if err := tx.Lock(keys[j], mode); err != nil {
							return err
						}
					}
					tx.Charge(sim.Duration(r.Intn(1000)) + 1)
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(uint64(w))
	}
	wg.Wait()
	st := db.Stats().Txn
	if st.LocksHeld != 0 || st.LockWaiting != 0 {
		t.Fatalf("locks leaked: %+v", st)
	}
	if st.LockWaits > acquisitions.Load() || st.LockTimeouts != 0 {
		t.Fatalf("%d waits and %d timeouts over %d acquisitions", st.LockWaits, st.LockTimeouts, acquisitions.Load())
	}
}
