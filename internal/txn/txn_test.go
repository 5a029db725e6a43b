package txn

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"noftl/internal/core"
	"noftl/internal/flash"
	"noftl/internal/sim"
	"noftl/internal/wal"
)

func testWAL(t *testing.T) *wal.Log {
	t.Helper()
	_, log := testDeviceWAL(t)
	return log
}

// testDeviceWAL is testWAL with the device under the log, for a test that
// arms faults on it.
func testDeviceWAL(t *testing.T) (*flash.Device, *wal.Log) {
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
	return dev, wal.New(mgr, core.Hint{ObjectID: 1}, 512)
}

// batoned runs a lock manager as the database does: every call holds one
// baton, which a waiter releases while it is parked.
type batoned struct {
	sync.Mutex
	*LockManager
}

func newBatoned(timeout time.Duration) *batoned {
	b := &batoned{LockManager: NewLockManager(timeout)}
	b.SetBaton(&b.Mutex)
	return b
}

func (b *batoned) LockAt(now sim.Time, txnID uint64, key string, mode LockMode) (*lockState, error) {
	b.Lock()
	defer b.Unlock()
	return b.LockManager.LockAt(now, txnID, key, mode, true)
}

func (b *batoned) ReleaseAllAt(now sim.Time, txnID uint64, held []*lockState) {
	b.Lock()
	defer b.Unlock()
	b.LockManager.ReleaseAllAt(now, txnID, held)
}

func (b *batoned) Stats() LockStats {
	b.Lock()
	defer b.Unlock()
	return b.LockManager.Stats()
}

// txLock and txCommit are Txn.Lock and Txn.Commit under the baton.
func (b *batoned) txLock(tx *Txn, key string, mode LockMode) error {
	b.Lock()
	defer b.Unlock()
	return tx.Lock(key, mode)
}

func (b *batoned) txCommit(tx *Txn) (sim.Time, error) {
	b.Lock()
	defer b.Unlock()
	return tx.Commit()
}

// mustLock takes key for txnID at now and returns the state LockAt hands out
// for ReleaseAllAt.
func mustLock(t *testing.T, lm *batoned, now sim.Time, txnID uint64, key string, mode LockMode) *lockState {
	t.Helper()
	ls, err := lm.LockAt(now, txnID, key, mode)
	if err != nil {
		t.Fatal(err)
	}
	return ls
}

// waitFor polls until n transactions wait on a key.
func waitFor(lm *batoned, n int64) {
	for lm.Stats().LockWaiting != n {
		time.Sleep(100 * time.Microsecond)
	}
}

// lockIn takes key for txnID on a goroutine of its own, which parks while it
// waits, and sends the outcome on the channel it returns.
func lockIn(lm *batoned, txnID uint64, key string, mode LockMode) <-chan lockOutcome {
	ch := make(chan lockOutcome, 1)
	go func() {
		ls, err := lm.LockAt(0, txnID, key, mode)
		ch <- lockOutcome{ls, err}
	}()
	return ch
}

type lockOutcome struct {
	ls  *lockState
	err error
}

// mustFailAtOnce checks that the wait closing a deadlock fails without
// parking, and names the transaction it would have waited for.
func mustFailAtOnce(t *testing.T, lm *batoned, txnID uint64, key string, mode LockMode, waitsFor uint64) {
	t.Helper()
	_, err := lm.LockAt(0, txnID, key, mode)
	if !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("txn %d on %q: %v, want ErrLockTimeout", txnID, key, err)
	}
	if want := fmt.Sprintf("waits for txn %d", waitsFor); !strings.Contains(err.Error(), want) {
		t.Fatalf("%v: does not say %q", err, want)
	}
}

func TestLockManagerSharedAndExclusive(t *testing.T) {
	lm := newBatoned(time.Second)
	// Two readers coexist.
	mustLock(t, lm, 0, 1, "k", Shared)
	k2 := mustLock(t, lm, 0, 2, "k", Shared)
	// A writer must wait.  Transaction 2 waits for x, which 1 holds; 1 then
	// asks for y, which 2 holds, closing the cycle, and fails at once.
	x := mustLock(t, lm, 0, 1, "x", Exclusive)
	y := mustLock(t, lm, 0, 2, "y", Exclusive)
	survivor := lockIn(lm, 2, "x", Exclusive)
	waitFor(lm, 1)
	mustFailAtOnce(t, lm, 1, "y", Exclusive, 2)
	if st := lm.Stats(); st.LockWaits != 2 || st.LockTimeouts != 1 || st.LockWaiting != 1 {
		t.Fatalf("after the deadlock: %+v", st)
	}
	// Releasing the victim's key lets the writer in.
	lm.ReleaseAllAt(0, 1, []*lockState{x})
	if r := <-survivor; r.err != nil {
		t.Fatalf("lock after release: %v", r.err)
	}
	lm.ReleaseAllAt(0, 2, []*lockState{y, x})
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
	lm := newBatoned(2 * time.Second)
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
	if log.Stats().FlushedLSN == 0 {
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
	if c := m.Counts(); c != (Counts{TxnStarted: 2, TxnCommitted: 1, TxnAborted: 1}) {
		t.Fatalf("counters: %+v", c)
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

// TestLockVirtualTimeoutDeterministic checks that LockAt's timeout is driven
// by virtual time on the key, not by host speed: a waiter with a 1 ms virtual
// budget times out exactly when releases push the key's virtual frontier past
// its deadline, and survives any amount of wall-clock waiting short of that.
func TestLockVirtualTimeoutDeterministic(t *testing.T) {
	lm := newBatoned(time.Millisecond) // 1 ms of virtual time

	k1 := mustLock(t, lm, 0, 1, "k", Exclusive)
	var k2 *lockState
	errCh := make(chan error, 1)
	go func() {
		// Waiter at virtual time 0: virtual deadline is 1 ms.
		var err error
		k2, err = lm.LockAt(0, 2, "k", Exclusive)
		errCh <- err
	}()
	for lm.Stats().LockWaiting == 0 {
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
	for lm.Stats().LockWaiting == 0 {
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
	for lm.Stats().LockWaiting == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	// Reader 6 releases at 2 ms; reader 5 still holds, so the writer cannot
	// be granted — and the frontier (2 ms) is past its 1 ms deadline.
	lm.ReleaseAllAt(sim.Time(2_000_000), 6, []*lockState{k6})
	if err := <-errCh; !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("want ErrLockTimeout, got %v", err)
	}
	st := lm.Stats()
	if st.LockTimeouts != 1 {
		t.Fatalf("timeouts = %d, want 1", st.LockTimeouts)
	}
	if st.LockWaits < 3 {
		t.Fatalf("waits = %d, want >= 3", st.LockWaits)
	}
}

// TestThreeTransactionCycleFailsTheCloser: 1 waits for 2 and 2 for 3, so
// 3's wait for 1 closes a cycle through two parked waiters.  It fails at
// once; when the victim releases, the waits unwind in order.
func TestThreeTransactionCycleFailsTheCloser(t *testing.T) {
	lm := newBatoned(time.Hour)
	a := mustLock(t, lm, 0, 1, "a", Exclusive)
	b := mustLock(t, lm, 0, 2, "b", Exclusive)
	c := mustLock(t, lm, 0, 3, "c", Exclusive)
	first := lockIn(lm, 1, "b", Exclusive)
	waitFor(lm, 1)
	second := lockIn(lm, 2, "c", Exclusive)
	waitFor(lm, 2)
	mustFailAtOnce(t, lm, 3, "a", Exclusive, 1)
	if st := lm.Stats(); st.LockWaiting != 2 || st.LockTimeouts != 1 {
		t.Fatalf("after the deadlock: %+v", st)
	}
	lm.ReleaseAllAt(0, 3, []*lockState{c})
	if r := <-second; r.err != nil {
		t.Fatalf("2 on c: %v", r.err)
	}
	lm.ReleaseAllAt(0, 2, []*lockState{b, c})
	if r := <-first; r.err != nil {
		t.Fatalf("1 on b: %v", r.err)
	}
	lm.ReleaseAllAt(0, 1, []*lockState{a, b})
	if st := lm.Stats(); st.LocksHeld != 0 || st.LockWaiting != 0 || st.LockTimeouts != 1 {
		t.Fatalf("after every release: %+v", st)
	}
}

// TestUpgradingReadersDeadlock: two readers of one key both ask to upgrade.
// The first waits for the other reader; the second would wait for the first,
// so it fails at once, and its release grants the first the upgrade.
func TestUpgradingReadersDeadlock(t *testing.T) {
	lm := newBatoned(time.Hour)
	k1 := mustLock(t, lm, 0, 1, "k", Shared)
	k2 := mustLock(t, lm, 0, 2, "k", Shared)
	upgrade := lockIn(lm, 1, "k", Exclusive)
	waitFor(lm, 1)
	mustFailAtOnce(t, lm, 2, "k", Exclusive, 1)
	lm.ReleaseAllAt(0, 2, []*lockState{k2})
	if r := <-upgrade; r.err != nil {
		t.Fatalf("upgrade after the victim's release: %v", r.err)
	}
	lm.ReleaseAllAt(0, 1, []*lockState{k1})
	if st := lm.Stats(); st.LocksHeld != 0 || st.LockWaiting != 0 || st.LockTimeouts != 1 {
		t.Fatalf("after every release: %+v", st)
	}
}

// TestCycleThroughAYieldingWaiter: reader 3 arrives at k while writer 2
// waits for it, and yields to 2 although it could share k with reader 1.
// Once 1 releases and 2 is granted k, 3 waits for 2; 2's wait for m, which 3
// holds, closes the cycle and fails at once.
//
// Who takes k first after 1's release is the scheduler's choice.  Go runs
// the goroutine a wake-up readied last first, so waiter 9 parks on another
// key after 3 to take that turn, and a run in which 3 still wins is retried.
func TestCycleThroughAYieldingWaiter(t *testing.T) {
	for attempt := 0; ; attempt++ {
		if attempt == 100 {
			t.Fatal("writer 2 never took k before reader 3 in 100 attempts")
		}
		lm := newBatoned(time.Hour)
		k1 := mustLock(t, lm, 0, 1, "k", Shared)
		m := mustLock(t, lm, 0, 3, "m", Exclusive)
		z := mustLock(t, lm, 0, 8, "z", Exclusive)
		writer := lockIn(lm, 2, "k", Exclusive)
		waitFor(lm, 1)
		reader := lockIn(lm, 3, "k", Shared) // grantable, but yields to 2
		waitFor(lm, 2)
		other := lockIn(lm, 9, "z", Exclusive)
		waitFor(lm, 3)
		lm.ReleaseAllAt(0, 1, []*lockState{k1})
		waitFor(lm, 2)
		lm.Lock()
		first := lm.locks["k"].writer == 2
		lm.Unlock()
		if first {
			w := <-writer
			mustFailAtOnce(t, lm, 2, "m", Exclusive, 3)
			lm.ReleaseAllAt(0, 2, []*lockState{w.ls})
		} else { // 3 shares k; 2 waits for it and takes k at its release
			r := <-reader
			lm.ReleaseAllAt(0, 3, []*lockState{r.ls, m})
			w := <-writer
			lm.ReleaseAllAt(0, 2, []*lockState{w.ls})
		}
		lm.ReleaseAllAt(0, 8, []*lockState{z})
		if r := <-other; r.err != nil {
			t.Fatalf("waiter 9: %v", r.err)
		}
		if !first {
			continue
		}
		if r := <-reader; r.err != nil {
			t.Fatalf("reader 3 after the victim's release: %v", r.err)
		}
		if st := lm.Stats(); st.LocksHeld != 3 || st.LockWaiting != 0 || st.LockTimeouts != 1 {
			t.Fatalf("after the deadlock: %+v", st)
		}
		return
	}
}

// TestUnrelatedReleasesNeitherGrantNorTimeOut deadlocks two transactions on
// keys A and B, then has a third commit on key C in a loop, advancing virtual
// time far past the lock timeout.  The closer of the cycle fails before C's
// first commit.  Every one of C's releases wakes the survivor, but moves
// neither A's nor B's frontier: it is neither granted nor timed out, and is
// granted B when the victim releases it.
func TestUnrelatedReleasesNeitherGrantNorTimeOut(t *testing.T) {
	lm := newBatoned(time.Millisecond)
	m := NewManager(lm.LockManager, nil, nil)
	t1, t2 := m.Begin(0), m.Begin(0)
	if err := t1.Lock("A", Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := t2.Lock("B", Exclusive); err != nil {
		t.Fatal(err)
	}
	survivor := make(chan error, 1)
	go func() { survivor <- lm.txLock(&t1, "B", Exclusive) }()
	waitFor(lm, 1)
	if err := lm.txLock(&t2, "A", Exclusive); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("the cycle's closer returned %v, want ErrLockTimeout", err)
	}
	now := sim.Time(0)
	for range 100 {
		tx := m.Begin(now)
		if err := lm.txLock(&tx, "C", Exclusive); err != nil {
			t.Fatal(err)
		}
		tx.Charge(time.Millisecond)
		now, _ = lm.txCommit(&tx)
	}
	select {
	case err := <-survivor:
		t.Fatalf("C's releases ended the survivor's wait: %v", err)
	default:
	}
	if st := lm.Stats(); st.LockWaiting != 1 || st.LockTimeouts != 1 {
		t.Fatalf("after C's commits: %+v", st)
	}
	lm.Lock()
	t2.Abort()
	lm.Unlock()
	if err := <-survivor; err != nil {
		t.Fatalf("the survivor after the victim's abort: %v", err)
	}
	lm.Lock()
	t1.Abort()
	lm.Unlock()
}

// TestTxnReleasesMoreKeysThanFitInline: a transaction holding 24 keys, more
// than the 20 a new lock list has room for, releases every one of them at
// commit.
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
	if len(tx.locks) != len(keys) || lm.Stats().LocksHeld != int64(len(keys)) {
		t.Fatalf("%d references and %d keys held, want %d", len(tx.locks), lm.Stats().LocksHeld, len(keys))
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if st := lm.Stats(); st.LocksHeld != 0 {
		t.Fatalf("%d keys still held after commit", st.LocksHeld)
	}
	for _, k := range keys {
		if ls := lm.locks[k]; ls.held() {
			t.Fatalf("%s still held: writer %d", k, ls.writer)
		}
	}
}

// TestLockListsAreBorrowedAndGivenBack: 1 000 transactions that lock a key
// and commit, and 1 000 that lock one and abort, all run on the one lock list
// the first of them borrows; each gives it back empty, with no reference to a
// lock state left in it.  A transaction that locks nothing borrows nothing,
// and one whose commit the log refused keeps its list with its locks until it
// aborts.
func TestLockListsAreBorrowedAndGivenBack(t *testing.T) {
	dev, log := testDeviceWAL(t)
	m := NewManager(nil, log, nil)
	lists := map[**lockState]bool{} // the backing array of every list borrowed
	returned := func() {
		t.Helper()
		if len(m.lists) != 1 {
			t.Fatalf("%d lists on the free list, want 1", len(m.lists))
		}
		l := m.lists[0]
		if len(l) != 0 || slices.ContainsFunc(l[:cap(l)], func(ls *lockState) bool { return ls != nil }) {
			t.Fatalf("a list came back holding %d of %d slots: %v", len(l), cap(l), l[:cap(l)])
		}
	}
	for i := range 2000 {
		tx := m.Begin(sim.Time(i))
		if err := tx.Lock(fmt.Sprintf("K:%d", i%7), Exclusive); err != nil {
			t.Fatal(err)
		}
		lists[unsafe.SliceData(tx.locks)] = true
		if i%2 == 0 {
			if _, err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		} else {
			tx.Abort()
		}
		if tx.locks != nil {
			t.Fatalf("transaction %d kept its list after it ended", i)
		}
		returned()
	}
	if len(lists) > 1 {
		t.Fatalf("%d lock lists allocated, want 1", len(lists))
	}

	tx := m.Begin(0)
	tx.Abort()
	if tx.locks != nil || len(m.lists) != 1 {
		t.Fatalf("a transaction without locks borrowed a list: %v, %d free", tx.locks, len(m.lists))
	}

	tx = m.Begin(0)
	if err := tx.Lock("K:0", Exclusive); err != nil {
		t.Fatal(err)
	}
	dev.Arm(flash.FaultPlan{CrashAfterOps: 1})
	if _, err := tx.Commit(); err == nil {
		t.Fatal("a commit on a crashed device succeeded")
	}
	if tx.State() != Active || len(tx.locks) != 1 || len(m.lists) != 0 {
		t.Fatalf("after a refused commit: state %v, %d locks, %d lists free", tx.State(), len(tx.locks), len(m.lists))
	}
	tx.Abort()
	returned()
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
	if ls.held() || m.LockManager().Stats().LocksHeld != 0 {
		t.Fatal("the upgraded key is still held after abort")
	}
}

// TestReleaseByReferenceWakesAWaiter: a transaction blocked on a key another
// holds is granted it when the holder commits and releases by reference.
func TestReleaseByReferenceWakesAWaiter(t *testing.T) {
	lm := newBatoned(time.Second)
	m := NewManager(lm.LockManager, nil, nil)
	holder, waiter := m.Begin(0), m.Begin(0)
	if err := holder.Lock("row", Exclusive); err != nil {
		t.Fatal(err)
	}
	granted := make(chan error, 1)
	go func() { granted <- lm.txLock(&waiter, "row", Exclusive) }()
	for lm.Stats().LockWaiting == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	if _, err := lm.txCommit(&holder); err != nil {
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
	if st := lm.Stats(); st.LocksHeld != 1 || st.LockWaiting != 0 {
		t.Fatalf("after the hand-over: %+v", st)
	}
	waiter.Abort()
}

// walkStats counts the held keys and the waiting transactions by walking the
// whole table, and compares them with the counters Stats reports, in one
// critical section.
func walkStats(t *testing.T, lm *batoned) {
	lm.Lock()
	defer lm.Unlock()
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
	lm := newBatoned(time.Millisecond)
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
	for lm.Stats().LockWaiting == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	walkStats(t, lm)
	lm.ReleaseAllAt(sim.Time(2*time.Millisecond), 2, []*lockState{a2}) // past the waiter's deadline
	if err := <-timedOut; !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("waiter: %v, want ErrLockTimeout", err)
	}
	if st := lm.Stats(); st.LocksHeld != 3 || st.LockWaiting != 0 || st.LockWaits != 1 || st.LockTimeouts != 1 {
		t.Fatalf("after the timeout: %+v", st)
	}
	walkStats(t, lm)
	lm.ReleaseAllAt(0, 1, []*lockState{a1, c1})
	lm.ReleaseAllAt(0, 3, []*lockState{b3})
	if st := lm.Stats(); st.LocksHeld != 0 {
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
	if st := lm.Stats(); st.LocksHeld != 0 || st.LockWaiting != 0 {
		t.Fatalf("after the mix: %+v", st)
	}
}
