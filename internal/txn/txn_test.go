package txn

import (
	"errors"
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

func TestLockManagerSharedAndExclusive(t *testing.T) {
	lm := NewLockManager(time.Second)
	// Two readers coexist.
	if err := lm.LockAt(0, 1, "k", Shared); err != nil {
		t.Fatal(err)
	}
	if err := lm.LockAt(0, 2, "k", Shared); err != nil {
		t.Fatal(err)
	}
	// A writer must wait; nothing is released, so the wall-clock safety net
	// makes it give up.
	short := NewLockManager(50 * time.Millisecond)
	short.SetWallFallback(50 * time.Millisecond)
	if err := short.LockAt(0, 1, "x", Exclusive); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := short.LockAt(0, 2, "x", Exclusive)
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
	short.ReleaseAllAt(0, 1, []string{"x"})
	if err := short.LockAt(0, 2, "x", Exclusive); err != nil {
		t.Fatalf("lock after release: %v", err)
	}
	// Re-acquiring an already-held lock succeeds, as does upgrading when the
	// transaction is the only reader.
	if err := lm.LockAt(0, 1, "k", Shared); err != nil {
		t.Fatal(err)
	}
	lm.ReleaseAllAt(0, 2, []string{"k"})
	if err := lm.LockAt(0, 1, "k", Exclusive); err != nil {
		t.Fatalf("upgrade failed: %v", err)
	}
	if err := lm.LockAt(0, 1, "k", Exclusive); err != nil {
		t.Fatalf("re-acquire failed: %v", err)
	}
}

func TestLockManagerBlocksThenGrants(t *testing.T) {
	lm := NewLockManager(2 * time.Second)
	if err := lm.LockAt(0, 1, "row", Exclusive); err != nil {
		t.Fatal(err)
	}
	acquired := make(chan error, 1)
	go func() {
		acquired <- lm.LockAt(0, 2, "row", Exclusive)
	}()
	select {
	case err := <-acquired:
		t.Fatalf("lock granted while held: %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	lm.ReleaseAllAt(0, 1, []string{"row"})
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
				if err := lm.LockAt(0, id, "counter", Exclusive); err != nil {
					t.Error(err)
					return
				}
				counter++
				lm.ReleaseAllAt(0, id, []string{"counter"})
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

	if err := lm.LockAt(0, 1, "k", Exclusive); err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		// Waiter at virtual time 0: virtual deadline is 1 ms.
		errCh <- lm.LockAt(0, 2, "k", Exclusive)
	}()
	for lm.Stats().Waiting == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	// Holder releases at virtual time 0.5 ms and a third txn cycles the lock,
	// releasing at 0.9 ms: frontier < deadline, waiter 2 must simply win the
	// lock (it is granted on the release wake-up, not timed out).
	lm.ReleaseAllAt(sim.Time(500_000), 1, []string{"k"})
	if err := <-errCh; err != nil {
		t.Fatalf("waiter timed out before its virtual deadline: %v", err)
	}
	lm.ReleaseAllAt(sim.Time(900_000), 2, []string{"k"})

	// Now the deterministic timeout: holder takes the lock and only releases
	// at virtual time 2.1 ms, past the waiter's 0.9+1.0=1.9 ms deadline.
	if err := lm.LockAt(sim.Time(900_000), 3, "k", Exclusive); err != nil {
		t.Fatal(err)
	}
	go func() {
		errCh <- lm.LockAt(sim.Time(900_000), 4, "k", Shared)
	}()
	for lm.Stats().Waiting == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	// Another key's release must not wake-or-time-out the waiter on "k".
	lm.ReleaseAllAt(sim.Time(5_000_000), 9, []string{"other"})
	select {
	case err := <-errCh:
		t.Fatalf("waiter finished on unrelated release: %v", err)
	case <-time.After(2 * time.Millisecond):
	}
	// Holder 3 keeps the lock but a second waiter cycles a *shared* grant?
	// No: release by 3 at 2.1 ms grants the lock to waiter 4 (grant wins over
	// timeout when the lock became available on the same wake-up).
	lm.ReleaseAllAt(sim.Time(2_100_000), 3, []string{"k"})
	if err := <-errCh; err != nil {
		t.Fatalf("waiter should be granted on release even past deadline: %v", err)
	}
	lm.ReleaseAllAt(sim.Time(2_100_000), 4, []string{"k"})

	// True timeout: holder 5 keeps the lock while releases of the SAME key by
	// a shared cohort push the frontier past the waiter's deadline.
	if err := lm.LockAt(sim.Time(0), 5, "k2", Shared); err != nil {
		t.Fatal(err)
	}
	if err := lm.LockAt(sim.Time(0), 6, "k2", Shared); err != nil {
		t.Fatal(err)
	}
	go func() {
		errCh <- lm.LockAt(sim.Time(0), 7, "k2", Exclusive)
	}()
	for lm.Stats().Waiting == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	// Reader 6 releases at 2 ms; reader 5 still holds, so the writer cannot
	// be granted — and the frontier (2 ms) is past its 1 ms deadline.
	lm.ReleaseAllAt(sim.Time(2_000_000), 6, []string{"k2"})
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
				held := make([]string, 0, 4)
				// Take up to 3 locks in ascending key order (no deadlocks).
				lo := r.Intn(len(keys) - 3)
				for j := lo; j < lo+1+r.Intn(3); j++ {
					mode := Shared
					if r.Intn(2) == 0 {
						mode = Exclusive
					}
					acquisitions.Add(1)
					if err := lm.LockAt(now, id+1, keys[j], mode); err != nil {
						errCh <- err
						return
					}
					held = append(held, keys[j])
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
	if err := lm.LockAt(0, 1, "dead", Exclusive); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := lm.LockAt(0, 2, "dead", Exclusive)
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
	}{{t1, "B"}, {t2, "A"}} {
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
