package txn

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"noftl/internal/core"
	"noftl/internal/flash"
	"noftl/internal/sim"
	"noftl/internal/wal"
)

func testWAL(t *testing.T) *wal.Log {
	t.Helper()
	cfg := flash.DefaultConfig()
	cfg.Geometry = flash.Geometry{
		Channels: 1, DiesPerChannel: 2, PlanesPerDie: 1,
		BlocksPerDie: 64, PagesPerBlock: 16, PageSize: 512,
	}
	dev, err := flash.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mgr := core.NewManager(dev, core.DefaultOptions())
	return wal.New(mgr, core.Hint{ObjectID: 1}, 512)
}

// mustLock takes key for txnID at now and returns the state LockAt hands out
// for ReleaseAllAt.
func mustLock(t *testing.T, lm *LockManager, now sim.Time, txnID uint64, key string, mode LockMode) *lockState {
	t.Helper()
	ls, err := lm.LockAt(now, txnID, key, mode)
	if err != nil {
		t.Fatal(err)
	}
	return ls
}

func TestLockManagerSharedAndExclusive(t *testing.T) {
	lm := NewLockManager(time.Second)
	// Two readers coexist.
	mustLock(t, lm, 0, 1, "k", Shared)
	k2 := mustLock(t, lm, 0, 2, "k", Shared)
	// A writer must wait; nothing is released, so the wall-clock safety net
	// makes it give up.
	short := NewLockManager(50 * time.Millisecond)
	short.SetWallFallback(50 * time.Millisecond)
	x := mustLock(t, short, 0, 1, "x", Exclusive)
	start := time.Now()
	_, err := short.LockAt(0, 2, "x", Exclusive)
	if !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("want ErrLockTimeout, got %v", err)
	}
	if time.Since(start) < 40*time.Millisecond {
		t.Fatal("timeout returned too early")
	}
	if short.Stats().Waits == 0 {
		t.Fatal("wait not counted")
	}
	// Releasing lets the writer in.
	short.ReleaseAllAt(0, 1, []*lockState{x})
	if _, err := short.LockAt(0, 2, "x", Exclusive); err != nil {
		t.Fatalf("lock after release: %v", err)
	}
	// Re-acquiring an already-held lock succeeds, as does upgrading when the
	// transaction is the only reader.
	if _, err := lm.LockAt(0, 1, "k", Shared); err != nil {
		t.Fatal(err)
	}
	lm.ReleaseAllAt(0, 2, []*lockState{k2})
	if _, err := lm.LockAt(0, 1, "k", Exclusive); err != nil {
		t.Fatalf("upgrade failed: %v", err)
	}
	if _, err := lm.LockAt(0, 1, "k", Exclusive); err != nil {
		t.Fatalf("re-acquire failed: %v", err)
	}
}

func TestLockManagerBlocksThenGrants(t *testing.T) {
	lm := NewLockManager(2 * time.Second)
	row := mustLock(t, lm, 0, 1, "row", Exclusive)
	acquired := make(chan error, 1)
	go func() {
		_, err := lm.LockAt(0, 2, "row", Exclusive)
		acquired <- err
	}()
	select {
	case err := <-acquired:
		t.Fatalf("lock granted while held: %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	lm.ReleaseAllAt(0, 1, []*lockState{row})
	select {
	case err := <-acquired:
		if err != nil {
			t.Fatalf("lock not granted after release: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter never woke up")
	}
}

func TestLockManagerConcurrentCounter(t *testing.T) {
	lm := NewLockManager(5 * time.Second)
	counter := 0
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				ls, err := lm.LockAt(0, id, "counter", Exclusive)
				if err != nil {
					t.Error(err)
					return
				}
				counter++
				lm.ReleaseAllAt(0, id, []*lockState{ls})
			}
		}(uint64(w + 1))
	}
	wg.Wait()
	if counter != 1600 {
		t.Fatalf("counter = %d, want 1600 (lost updates)", counter)
	}
}

func TestTxnLifecycle(t *testing.T) {
	log := testWAL(t)
	m := NewManager(NewLockManager(time.Second), log, sim.NewClock())
	tx := m.Begin(0)
	if tx.ID() == 0 || tx.State() != Active {
		t.Fatal("begin state wrong")
	}
	if err := tx.Lock("W:1", Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := tx.Lock("W:1", Exclusive); err != nil { // idempotent
		t.Fatal(err)
	}
	tx.Log(wal.RecUpdate, 5, []byte("update W 1"))
	tx.Charge(100 * time.Microsecond)
	tx.AdvanceTo(tx.Now().Add(50 * time.Microsecond))
	done, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if done <= 0 || tx.State() != Committed {
		t.Fatalf("commit: %v state=%v", done, tx.State())
	}
	if tx.ResponseTime() <= 0 {
		t.Fatal("response time not accounted")
	}
	// Commit forces the log.
	if log.FlushedLSN() == 0 {
		t.Fatal("commit did not flush the WAL")
	}
	// Double commit / post-commit operations fail gracefully.
	if _, err := tx.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("double commit: %v", err)
	}
	if err := tx.Lock("x", Shared); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("lock after commit: %v", err)
	}
	if err := tx.Log(wal.RecInsert, 1, []byte("late")); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("log after commit: %v", err)
	}
	// Another transaction can take the released lock immediately.
	tx2 := m.Begin(done)
	if err := tx2.Lock("W:1", Exclusive); err != nil {
		t.Fatal(err)
	}
	_ = tx2.Abort()
	if tx2.State() != Aborted {
		t.Fatal("abort state wrong")
	}
	_ = tx2.Abort() // idempotent
	if m.Started() != 2 || m.Committed() != 1 || m.Aborted() != 1 {
		t.Fatalf("counters: started=%d committed=%d aborted=%d", m.Started(), m.Committed(), m.Aborted())
	}
	if m.LockManager() == nil {
		t.Fatal("lock manager accessor nil")
	}
}

func TestTxnWithoutWAL(t *testing.T) {
	m := NewManager(nil, nil, nil)
	tx := m.Begin(100)
	tx.Log(wal.RecUpdate, 1, nil) // no-op without a log
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentTransactionsSerializeOnLock(t *testing.T) {
	log := testWAL(t)
	m := NewManager(NewLockManager(5*time.Second), log, sim.NewClock())
	balance := 0
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				tx := m.Begin(0)
				if err := tx.Lock("account:1", Exclusive); err != nil {
					t.Error(err)
					return
				}
				balance++
				tx.Log(wal.RecUpdate, 1, []byte{1})
				if _, err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if balance != 400 {
		t.Fatalf("balance = %d, want 400", balance)
	}
	if m.Committed() != 400 {
		t.Fatalf("commits = %d", m.Committed())
	}
}

// TestLockVirtualTimeoutDeterministic checks that LockAt's timeout is driven
// by virtual time on the key, not by host speed: a waiter with a 1 ms virtual
// budget times out exactly when releases push the key's virtual frontier past
// its deadline, and survives any amount of wall-clock waiting short of that.
func TestLockVirtualTimeoutDeterministic(t *testing.T) {
	lm := NewLockManager(time.Millisecond) // 1 ms of virtual time
	lm.SetWallFallback(30 * time.Second)   // fallback far away: virtual path must fire

	k1 := mustLock(t, lm, 0, 1, "k", Exclusive)
	var k2 *lockState
	errCh := make(chan error, 1)
	go func() {
		// Waiter at virtual time 0: virtual deadline is 1 ms.
		var err error
		k2, err = lm.LockAt(0, 2, "k", Exclusive)
		errCh <- err
	}()
	for lm.Stats().Waiting == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	// Holder releases at virtual time 0.5 ms and a third txn cycles the lock,
	// releasing at 0.9 ms: frontier < deadline, waiter 2 must simply win the
	// lock (it is granted on the release wake-up, not timed out).
	lm.ReleaseAllAt(sim.Time(500_000), 1, []*lockState{k1})
	if err := <-errCh; err != nil {
		t.Fatalf("waiter timed out before its virtual deadline: %v", err)
	}
	lm.ReleaseAllAt(sim.Time(900_000), 2, []*lockState{k2})

	// Now the deterministic timeout: holder takes the lock and only releases
	// at virtual time 2.1 ms, past the waiter's 0.9+1.0=1.9 ms deadline.
	k3 := mustLock(t, lm, sim.Time(900_000), 3, "k", Exclusive)
	other := mustLock(t, lm, sim.Time(900_000), 9, "other", Exclusive)
	var k4 *lockState
	go func() {
		var err error
		k4, err = lm.LockAt(sim.Time(900_000), 4, "k", Shared)
		errCh <- err
	}()
	for lm.Stats().Waiting == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	// Another key's release must not wake-or-time-out the waiter on "k".
	lm.ReleaseAllAt(sim.Time(5_000_000), 9, []*lockState{other})
	select {
	case err := <-errCh:
		t.Fatalf("waiter finished on unrelated release: %v", err)
	case <-time.After(2 * time.Millisecond):
	}
	// Holder 3 keeps the lock but a second waiter cycles a *shared* grant?
	// No: release by 3 at 2.1 ms grants the lock to waiter 4 (grant wins over
	// timeout when the lock became available on the same wake-up).
	lm.ReleaseAllAt(sim.Time(2_100_000), 3, []*lockState{k3})
	if err := <-errCh; err != nil {
		t.Fatalf("waiter should be granted on release even past deadline: %v", err)
	}
	lm.ReleaseAllAt(sim.Time(2_100_000), 4, []*lockState{k4})

	// True timeout: holder 5 keeps the lock while releases of the SAME key by
	// a shared cohort push the frontier past the waiter's deadline.
	mustLock(t, lm, 0, 5, "k2", Shared)
	k6 := mustLock(t, lm, 0, 6, "k2", Shared)
	go func() {
		_, err := lm.LockAt(sim.Time(0), 7, "k2", Exclusive)
		errCh <- err
	}()
	for lm.Stats().Waiting == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	// Reader 6 releases at 2 ms; reader 5 still holds, so the writer cannot
	// be granted — and the frontier (2 ms) is past its 1 ms deadline.
	lm.ReleaseAllAt(sim.Time(2_000_000), 6, []*lockState{k6})
	if err := <-errCh; !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("want ErrLockTimeout, got %v", err)
	}
	st := lm.Stats()
	if st.Timeouts != 1 {
		t.Fatalf("timeouts = %d, want 1", st.Timeouts)
	}
	if st.Waits < 3 {
		t.Fatalf("waits = %d, want >= 3", st.Waits)
	}
}

// TestLockManagerShardedStress hammers the lock table from many goroutines
// over many keys, mixing shared and exclusive modes, upgrades and releases.
// Run it with -race.
func TestLockManagerShardedStress(t *testing.T) {
	lm := NewLockManager(200 * time.Millisecond)
	const workers = 8
	const rounds = 300
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = string(rune('a'+i%26)) + string(rune('0'+i/26))
	}
	var wg sync.WaitGroup
	var acquisitions atomic.Int64
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			r := sim.NewRand(id + 1)
			now := sim.Time(0)
			for i := 0; i < rounds; i++ {
				held := make([]*lockState, 0, 4)
				// Take up to 3 locks in ascending key order (no deadlocks).
				lo := r.Intn(len(keys) - 3)
				for j := lo; j < lo+1+r.Intn(3); j++ {
					mode := Shared
					if r.Intn(2) == 0 {
						mode = Exclusive
					}
					acquisitions.Add(1)
					ls, err := lm.LockAt(now, id+1, keys[j], mode)
					if err != nil {
						errCh <- err
						return
					}
					held = append(held, ls)
				}
				now = now.Add(sim.Duration(r.Intn(1000)) + 1)
				lm.ReleaseAllAt(now, id+1, held)
			}
		}(uint64(w))
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	st := lm.Stats()
	if st.Held != 0 || st.Waiting != 0 {
		t.Fatalf("locks leaked: %+v", st)
	}
	// An acquisition counts at most one wait, however often it is woken.
	if st.Waits > acquisitions.Load() || st.Timeouts != 0 {
		t.Fatalf("%d waits and %d timeouts over %d acquisitions", st.Waits, st.Timeouts, acquisitions.Load())
	}
}

// TestLockWallFallbackCatchesDeadlock checks the wall-clock safety net: when
// no release ever advances the key's virtual frontier (a deadlock), the
// waiter still gets ErrLockTimeout after the fallback.
func TestLockWallFallbackCatchesDeadlock(t *testing.T) {
	lm := NewLockManager(time.Millisecond)
	lm.SetWallFallback(20 * time.Millisecond)
	mustLock(t, lm, 0, 1, "dead", Exclusive)
	start := time.Now()
	_, err := lm.LockAt(0, 2, "dead", Exclusive)
	if !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("want ErrLockTimeout, got %v", err)
	}
	if el := time.Since(start); el < 15*time.Millisecond {
		t.Fatalf("fallback fired too early: %v", el)
	}
}

// TestUnrelatedReleasesNeitherGrantNorTimeOut deadlocks two transactions on
// keys A and B while a third commits on key C in a loop, advancing virtual
// time far past the lock timeout.  Every one of C's releases wakes the two
// waiters, and re-arms their wall-clock timers with ever shorter waits; it
// must move neither A's nor B's frontier, so both waiters end by the
// fallback alone, and the fallback's wake-up must not be lost however close
// to a re-arm it fires.
func TestUnrelatedReleasesNeitherGrantNorTimeOut(t *testing.T) {
	const fallback = 20 * time.Millisecond
	lm := NewLockManager(time.Millisecond)
	lm.SetWallFallback(fallback)
	m := NewManager(lm, nil, nil)
	t1, t2 := m.Begin(0), m.Begin(0)
	if err := t1.Lock("A", Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := t2.Lock("B", Exclusive); err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		err     error
		elapsed time.Duration
	}
	results := make(chan outcome, 2)
	start := time.Now()
	for _, w := range []struct {
		tx  *Txn
		key string
	}{{&t1, "B"}, {&t2, "A"}} {
		go func() {
			begin := time.Now()
			err := w.tx.Lock(w.key, Exclusive)
			results <- outcome{err, time.Since(begin)}
		}()
	}
	// C commits until about when the waiters' fallbacks expire, then stops:
	// from there on only the fallback's timer can wake them.
	for now := sim.Time(0); time.Since(start) < fallback; {
		tx := m.Begin(now)
		if err := tx.Lock("C", Exclusive); err != nil {
			t.Fatal(err)
		}
		tx.Charge(time.Millisecond)
		now, _ = tx.Commit()
	}
	deadline := time.After(2 * time.Second)
	for range 2 {
		select {
		case r := <-results:
			if !errors.Is(r.err, ErrLockTimeout) {
				t.Fatalf("deadlocked waiter returned %v, want ErrLockTimeout", r.err)
			}
			if r.elapsed < fallback {
				t.Fatalf("deadlocked waiter gave up after %v, before the %v fallback", r.elapsed, fallback)
			}
		case <-deadline:
			t.Fatal("a deadlocked waiter is still blocked 2 s after a 20 ms fallback: its wake-up was lost")
		}
	}
	t1.Abort()
	t2.Abort()
}

// TestTxnReleasesMoreKeysThanFitInline: a transaction holding 24 keys, more
// than its inline array takes, releases every one of them at commit.
func TestTxnReleasesMoreKeysThanFitInline(t *testing.T) {
	m := NewManager(nil, nil, nil)
	lm := m.LockManager()
	keys := make([]string, 24)
	for i := range keys {
		keys[i] = fmt.Sprintf("K:%d", i)
	}
	tx := m.Begin(0)
	for _, k := range keys {
		if err := tx.Lock(k, Exclusive); err != nil {
			t.Fatal(err)
		}
	}
	if len(tx.locks) != len(keys) || lm.Stats().Held != int64(len(keys)) {
		t.Fatalf("%d references and %d keys held, want %d", len(tx.locks), lm.Stats().Held, len(keys))
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if st := lm.Stats(); st.Held != 0 {
		t.Fatalf("%d keys still held after commit", st.Held)
	}
	for _, k := range keys {
		if ls := lm.locks[k]; ls.held() {
			t.Fatalf("%s still held: writer %d", k, ls.writer)
		}
	}
}

// TestUpgradeKeepsOneReference: a shared hold upgraded to exclusive, and the
// locks taken again after it, leave one reference to the key, and a release
// drops the exclusive hold.
func TestUpgradeKeepsOneReference(t *testing.T) {
	m := NewManager(nil, nil, nil)
	tx := m.Begin(0)
	for _, mode := range []LockMode{Shared, Exclusive, Shared, Exclusive} {
		if err := tx.Lock("k", mode); err != nil {
			t.Fatal(err)
		}
	}
	if len(tx.locks) != 1 {
		t.Fatalf("%d references to one key", len(tx.locks))
	}
	ls := tx.locks[0]
	if ls.writer != tx.ID() || len(ls.readers) != 0 {
		t.Fatalf("after the upgrade: writer %d, readers %v", ls.writer, ls.readers)
	}
	tx.Abort()
	if ls.held() || m.LockManager().Stats().Held != 0 {
		t.Fatal("the upgraded key is still held after abort")
	}
}

// TestReleaseByReferenceWakesAWaiter: a transaction blocked on a key another
// holds is granted it when the holder commits and releases by reference.
func TestReleaseByReferenceWakesAWaiter(t *testing.T) {
	m := NewManager(NewLockManager(time.Second), nil, nil)
	holder, waiter := m.Begin(0), m.Begin(0)
	if err := holder.Lock("row", Exclusive); err != nil {
		t.Fatal(err)
	}
	granted := make(chan error, 1)
	go func() { granted <- waiter.Lock("row", Exclusive) }()
	for m.LockManager().Stats().Waiting == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	if _, err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-granted:
		if err != nil {
			t.Fatalf("waiter: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the release did not wake the waiter")
	}
	if st := m.LockManager().Stats(); st.Held != 1 || st.Waiting != 0 {
		t.Fatalf("after the hand-over: %+v", st)
	}
	waiter.Abort()
}

// walkStats counts the held keys and the waiting transactions by walking the
// whole table, and compares them with the counters Stats reports, in one
// critical section.
func walkStats(t *testing.T, lm *LockManager) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	var held, waiting int64
	for _, ls := range lm.locks {
		if ls.held() {
			held++
		}
		waiting += int64(ls.waiting)
	}
	if held != lm.held || waiting != lm.waiting {
		t.Errorf("Stats says %d held and %d waiting, the table %d and %d", lm.held, lm.waiting, held, waiting)
	}
}

// TestStatsMatchAWalkOfTheTable checks that the counters Stats keeps equal a
// walk of every key ever locked: first over one scripted history of shared and
// exclusive grants, an upgrade, a wait, a timeout and releases, then
// throughout a seeded mix of the same from eight transactions at once.
func TestStatsMatchAWalkOfTheTable(t *testing.T) {
	lm := NewLockManager(time.Millisecond)
	lm.SetWallFallback(5 * time.Millisecond) // ends the mix's upgrade deadlocks
	a1 := mustLock(t, lm, 0, 1, "a", Shared)
	a2 := mustLock(t, lm, 0, 2, "a", Shared)
	b3 := mustLock(t, lm, 0, 3, "b", Exclusive)
	c1 := mustLock(t, lm, 0, 1, "c", Shared)
	mustLock(t, lm, 0, 1, "c", Exclusive) // the upgrade
	walkStats(t, lm)
	timedOut := make(chan error, 1)
	go func() {
		_, err := lm.LockAt(0, 4, "a", Exclusive)
		timedOut <- err
	}()
	for lm.Stats().Waiting == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	walkStats(t, lm)
	lm.ReleaseAllAt(sim.Time(2*time.Millisecond), 2, []*lockState{a2}) // past the waiter's deadline
	if err := <-timedOut; !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("waiter: %v, want ErrLockTimeout", err)
	}
	if st := lm.Stats(); st.Held != 3 || st.Waiting != 0 || st.Waits != 1 || st.Timeouts != 1 {
		t.Fatalf("after the timeout: %+v", st)
	}
	walkStats(t, lm)
	lm.ReleaseAllAt(0, 1, []*lockState{a1, c1})
	lm.ReleaseAllAt(0, 3, []*lockState{b3})
	if st := lm.Stats(); st.Held != 0 {
		t.Fatalf("after every release: %+v", st)
	}

	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	done := make(chan struct{})
	walks := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-done:
				walks <- n
				return
			default:
				walkStats(t, lm)
				n++
			}
		}
	}()
	var wg sync.WaitGroup
	for w := range 8 {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			r := sim.NewRand(id)
			now := sim.Time(id) * sim.Time(10*time.Millisecond) // clocks apart: releases time out waiters
			for range 100 {
				var held []*lockState
				var shared []string
				for j := r.Intn(3); j < len(keys); j += 1 + r.Intn(3) {
					mode := LockMode(r.Intn(2))
					ls, err := lm.LockAt(now, id, keys[j], mode)
					if ls != nil {
						held = append(held, ls)
					}
					if err != nil {
						break // a victim: release what it holds
					}
					if mode == Shared && r.Intn(4) == 0 {
						shared = append(shared, keys[j])
					}
				}
				for _, k := range shared {
					if _, err := lm.LockAt(now, id, k, Exclusive); err != nil {
						break
					}
				}
				now = now.Add(sim.Duration(r.Intn(3_000_000)))
				lm.ReleaseAllAt(now, id, held)
			}
		}(uint64(w + 10))
	}
	wg.Wait()
	close(done)
	if n := <-walks; n == 0 {
		t.Fatal("the table was never walked during the mix")
	}
	walkStats(t, lm)
	if st := lm.Stats(); st.Held != 0 || st.Waiting != 0 {
		t.Fatalf("after the mix: %+v", st)
	}
}
