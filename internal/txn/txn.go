// Package txn provides the transaction manager of the reproduction's storage
// engine: transaction identities, strict two-phase locking on logical keys,
// commit/abort bookkeeping and per-transaction virtual-time accounting.
//
// Nothing here takes a lock of its own: the database runs one operation at a
// time under its baton (see noftl.DB), and the lock table is one map the
// operation holding the baton reads and writes.  Lock waits are real (the
// waiting goroutine parks on a condition variable of the baton, so the holder
// can run to its release), and every wait ends on an event of the history,
// never on the host clock.  A wait that would close a cycle of waiting
// transactions is a deadlock and fails at once.  Any other wait gives up when
// the contended key has seen more than the configured budget of simulated time
// pass (measured from release to release) while the lock stayed unavailable.
// So ErrLockTimeout is independent of host speed and parallel test load.
// TPC-C transactions acquire their locks in a canonical order, so deadlocks
// cannot form in the benchmark itself.
package txn

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"noftl/internal/metrics"
	"noftl/internal/sim"
	"noftl/internal/wal"
)

// LockMode is the requested access mode for a key.
type LockMode int

// Lock modes.
const (
	Shared LockMode = iota
	Exclusive
)

// Errors returned by the transaction manager.
var (
	// ErrLockTimeout reports a lock wait that would have closed a deadlock,
	// or that outlived its virtual-time budget.
	ErrLockTimeout = errors.New("txn: lock wait timeout")
	// ErrTxnDone reports an operation on a committed or aborted transaction.
	ErrTxnDone = errors.New("txn: transaction already finished")
	// ErrLockBusy reports a TryLock that would have had to wait.
	ErrLockBusy = errors.New("txn: lock held by another transaction")
)

// lockState is the state of one lockable key.  The table keeps one for every
// key ever locked, so a transaction holds its keys by reference.
type lockState struct {
	readers map[uint64]int // txn id -> hold count; made at the first shared grant
	writer  uint64         // txn id holding exclusively, 0 if none
	waiting int            // transactions currently blocked on this key
	// maxRelease is the highest virtual time at which a holder released this
	// key.  Waiters use it as the key's virtual-time frontier: when it moves
	// past a waiter's deadline while the lock stays unavailable, the wait
	// has deterministically timed out.
	maxRelease sim.Time
}

// held reports whether any transaction holds the key.
func (ls *lockState) held() bool { return ls.writer != 0 || len(ls.readers) > 0 }

// LockManager implements strict two-phase locking over string keys.  It is
// not safe for concurrent use: every call runs under the baton SetBaton names,
// and waiters of every key park on one condition variable of it.  A release,
// and a waiter that leaves, wake them all, and each re-checks its own key.
type LockManager struct {
	cond     sync.Cond // L is the baton: a waiter releases it while parked
	locks    map[string]*lockState
	free     []lockState           // the rest of the chunk of 256 new states are carved from
	waitsOn  map[uint64]*lockState // waiting transaction -> the key it waits on
	held     int64                 // keys some transaction holds
	waiting  int64                 // transactions blocked on a key
	timeout  time.Duration         // virtual-time wait budget (ns, 1:1 with sim time)
	waits    int64                 // lock acquisitions that had to block
	timeouts int64                 // waits that failed
}

// NewLockManager creates a lock manager with the given wait timeout (zero
// selects one second), interpreted in virtual time (LockAt).
func NewLockManager(timeout time.Duration) *LockManager {
	if timeout <= 0 {
		timeout = time.Second
	}
	return &LockManager{timeout: timeout, locks: make(map[string]*lockState), waitsOn: make(map[uint64]*lockState)}
}

// SetBaton names the lock every call runs under and a waiter parks on.  Set
// it before a call that may have to wait: only a caller that never meets a
// held lock, such as a single goroutine, can do without one.
func (lm *LockManager) SetBaton(baton sync.Locker) { lm.cond.L = baton }

// state returns the lock state of key, creating it on first use.
func (lm *LockManager) state(key string) *lockState {
	ls, ok := lm.locks[key]
	if !ok {
		if len(lm.free) == 0 {
			lm.free = make([]lockState, 256)
		}
		ls, lm.free = &lm.free[0], lm.free[1:]
		lm.locks[key] = ls
	}
	return ls
}

// LockStats is a snapshot of lock-manager contention counters.
type LockStats struct {
	// Waits counts lock acquisitions that had to block; Timeouts counts
	// waits that ended in ErrLockTimeout.
	Waits    int64
	Timeouts int64
	// Held is the number of keys currently locked (shared or exclusive);
	// Waiting is the number of transactions currently blocked on a key.
	Held    int64
	Waiting int64
}

// Stats returns a snapshot of the lock manager's contention counters.
func (lm *LockManager) Stats() LockStats {
	return LockStats{Waits: lm.waits, Timeouts: lm.timeouts, Held: lm.held, Waiting: lm.waiting}
}

// LockAt acquires key in the given mode on behalf of txnID, whose current
// virtual time is now, blocking until the lock is granted or the wait fails;
// without wait it fails with ErrLockBusy instead of blocking.  Re-acquiring a
// lock already held (including upgrading shared to exclusive when the
// transaction is the sole reader) succeeds.  It returns the key's state when
// the grant is the transaction's first hold on key, for ReleaseAllAt, and nil
// otherwise.
//
// A wait fails with ErrLockTimeout at once when it would close a cycle of
// waiting transactions (a deadlock), and otherwise when the key's release
// frontier (the highest virtual time of any release of this key) moves more
// than the configured timeout past the frontier observed when the wait began,
// while the lock remains unavailable.
func (lm *LockManager) LockAt(now sim.Time, txnID uint64, key string, mode LockMode, wait bool) (*lockState, error) {
	ls := lm.state(key)
	waited := false
	var vdeadline sim.Time
	for {
		holder := ls.writer == txnID || ls.readers[txnID] > 0
		// A newly arriving request yields to transactions that are already
		// waiting (simple fairness, so a hot lock cannot starve a waiter),
		// unless the transaction already holds the lock.
		barge := !holder && !waited && ls.waiting > 0
		if !barge && grantable(ls, txnID, mode) {
			if !ls.held() {
				lm.held++
			}
			if mode == Exclusive {
				ls.writer = txnID
				delete(ls.readers, txnID) // upgrade consumes the shared hold
			} else {
				if ls.readers == nil {
					ls.readers = make(map[uint64]int)
				}
				ls.readers[txnID]++
			}
			if waited {
				lm.leave(txnID, ls)
			}
			if holder {
				return nil, nil
			}
			return ls, nil
		}
		if !wait {
			return nil, fmt.Errorf("%w: txn %d key %q", ErrLockBusy, txnID, key)
		}
		if !waited {
			waited = true
			lm.waits++
			ls.waiting++
			lm.waiting++
			lm.waitsOn[txnID] = ls
			// Anchor the virtual deadline to the key's release frontier, not
			// just the waiter's own cursor: cursors of independent workers
			// drift apart, and a waiter behind the frontier must still be
			// given a full timeout of *future* virtual activity.
			vdeadline = max(now, ls.maxRelease).Add(lm.timeout)
		} else if ls.maxRelease > vdeadline {
			lm.leave(txnID, ls)
			lm.timeouts++
			return nil, fmt.Errorf("%w: txn %d key %q", ErrLockTimeout, txnID, key)
		}
		if other := lm.cycle(txnID, ls); other != 0 {
			lm.leave(txnID, ls)
			lm.timeouts++
			return nil, fmt.Errorf("%w: txn %d key %q: deadlock, waits for txn %d", ErrLockTimeout, txnID, key, other)
		}
		// Any release wakes us, and so does a waiter that leaves; a release
		// of another key moves neither this key's frontier nor the deadline,
		// so the loop just waits again.
		lm.cond.Wait()
	}
}

// leave ends txnID's wait on ls, granted or failed, and wakes the other
// waiters once: one that yielded to it checks its key again.
func (lm *LockManager) leave(txnID uint64, ls *lockState) {
	ls.waiting--
	lm.waiting--
	delete(lm.waitsOn, txnID)
	lm.cond.Broadcast()
}

// cycle returns the holder of ls through which waits lead back to txnID, the
// deadlock txnID's wait on ls would close, or 0 if there is none.  A waiter,
// blocked or yielding to earlier waiters, waits for every other holder of its
// key; the walk visits each waiter at most once.
func (lm *LockManager) cycle(txnID uint64, ls *lockState) uint64 {
	seen := make(map[uint64]bool)
	var leadsBack func(h uint64) bool
	leadsBack = func(h uint64) bool {
		k := lm.waitsOn[h]
		if h == txnID || k == nil || seen[h] {
			return h == txnID
		}
		seen[h] = true
		return otherHolder(k, h, leadsBack) != 0
	}
	return otherHolder(ls, txnID, leadsBack)
}

// otherHolder returns a holder of ls other than txnID for which f is true, or
// 0 if there is none.
func otherHolder(ls *lockState, txnID uint64, f func(uint64) bool) uint64 {
	if ls.writer != 0 && ls.writer != txnID && f(ls.writer) {
		return ls.writer
	}
	for r := range ls.readers {
		if r != txnID && f(r) {
			return r
		}
	}
	return 0
}

// grantable reports whether txnID may take key in mode: a shared hold
// excludes another writer, an exclusive one any other holder.
func grantable(ls *lockState, txnID uint64, mode LockMode) bool {
	if mode == Shared {
		return ls.writer == 0 || ls.writer == txnID
	}
	return otherHolder(ls, txnID, func(uint64) bool { return true }) == 0
}

// ReleaseAllAt releases txnID's holds on the keys whose states LockAt
// returned and advances each key's virtual release frontier to now, which is
// what drives waiters' virtual timeouts forward.  It wakes the waiters once,
// after the last key.
func (lm *LockManager) ReleaseAllAt(now sim.Time, txnID uint64, held []*lockState) {
	if len(held) == 0 {
		return // a transaction that took no lock wakes nobody
	}
	for _, ls := range held {
		// ReleaseAllAt is only called at commit/abort (strict two-phase
		// locking), so every hold the transaction has on the key is dropped
		// at once, however many times it re-acquired the lock.
		wasHeld := ls.held()
		if ls.writer == txnID {
			ls.writer = 0
		}
		delete(ls.readers, txnID)
		if wasHeld && !ls.held() {
			lm.held--
		}
		if now > ls.maxRelease {
			ls.maxRelease = now
		}
	}
	lm.cond.Broadcast()
}

// State tracks a transaction's lifecycle.
type State int

// Transaction states.
const (
	Active State = iota
	Committed
	Aborted
)

// Manager creates transactions, hands out ids and coordinates the WAL.
type Manager struct {
	nextID uint64
	lm     *LockManager
	log    *wal.Log
	clock  *sim.Clock
	// counts since the last ResetCounters
	started, commits, aborts int64
}

// NewManager creates a transaction manager.  log may be nil (no logging) and
// clock may be nil (no global time publication).
func NewManager(lm *LockManager, log *wal.Log, clock *sim.Clock) *Manager {
	if lm == nil {
		lm = NewLockManager(0)
	}
	return &Manager{lm: lm, log: log, clock: clock}
}

// WriteMetrics writes the transaction counts and the lock manager's
// contention counts into the noftl_txn_* families of mt.
func (m *Manager) WriteMetrics(mt *metrics.Text) {
	mt.Counter("noftl_txn_started_total", "Transactions started.").Add(m.started)
	mt.Counter("noftl_txn_committed_total", "Transactions committed.").Add(m.commits)
	mt.Counter("noftl_txn_aborted_total", "Transactions aborted.").Add(m.aborts)
	mt.Counter("noftl_txn_lock_waits_total", "Lock acquisitions that had to block.").Add(m.lm.waits)
	mt.Counter("noftl_txn_lock_timeouts_total",
		"Lock waits that failed (ErrLockTimeout): at once on a deadlock, or past the virtual-time wait budget.").Add(m.lm.timeouts)
}

// ResetCounters zeroes the transaction and lock-contention counters (after
// warm-up); transaction ids and held locks are untouched.
func (m *Manager) ResetCounters() {
	m.started, m.commits, m.aborts = 0, 0, 0
	m.lm.waits, m.lm.timeouts = 0, 0
}

// LockManager returns the shared lock manager.
func (m *Manager) LockManager() *LockManager { return m.lm }

// NextID returns the highest transaction id handed out so far (checkpoints
// persist it so recovery can seed a fresh manager past it).
func (m *Manager) NextID() uint64 { return m.nextID }

// SeedNextID raises the id counter so that future transactions receive ids
// strictly greater than next.  Recovery uses it to keep replayed transaction
// ids from being reissued.
func (m *Manager) SeedNextID(next uint64) { m.nextID = max(m.nextID, next) }

// Started, Committed and Aborted return the transaction counters.
func (m *Manager) Started() int64   { return m.started }
func (m *Manager) Committed() int64 { return m.commits }
func (m *Manager) Aborted() int64   { return m.aborts }

// Txn is one transaction.  It is owned by a single goroutine (a TPC-C
// terminal); it is not safe for concurrent use.  A Txn is a value its owner
// embeds: it holds its clock and room for the keys of a Delivery's locks, so
// a transaction that takes no more allocates nothing of its own.  Do not copy
// a Txn once it has taken a lock.
type Txn struct {
	id      uint64
	mgr     *Manager
	cursor  sim.Cursor
	state   State
	locks   []*lockState // every key held, once; lockBuf until it outgrows it
	lockBuf [20]*lockState
	start   sim.Time
	logged  bool // RecBegin has been appended (done lazily, see logBegin)
}

// Begin starts a transaction whose virtual clock begins at now.  Nothing is
// logged yet: RecBegin is written immediately before the transaction's first
// record, so a read-only transaction that aborts leaves the log untouched.
func (m *Manager) Begin(now sim.Time) Txn {
	m.started++
	m.nextID++
	t := Txn{id: m.nextID, mgr: m, cursor: *sim.NewCursor(m.clock), state: Active, start: now}
	t.cursor.SetTo(now)
	return t
}

// logBegin appends the transaction's RecBegin ahead of its first record.
func (t *Txn) logBegin() {
	if !t.logged {
		t.logged = true
		_, _ = t.mgr.log.Append(wal.RecBegin, t.id, 0)
	}
}

// ID returns the transaction id.
func (t *Txn) ID() uint64 { return t.id }

// Now returns the transaction's current virtual time.
func (t *Txn) Now() sim.Time { return t.cursor.Now() }

// AdvanceTo moves the transaction's virtual clock forward (after an I/O
// completed at that time).
func (t *Txn) AdvanceTo(when sim.Time) { t.cursor.AdvanceTo(when) }

// Charge adds CPU time to the transaction's virtual clock.
func (t *Txn) Charge(d time.Duration) { t.cursor.Advance(d) }

// ResponseTime returns the virtual time elapsed since Begin.
func (t *Txn) ResponseTime() time.Duration { return t.cursor.Now().Sub(t.start) }

// State returns the transaction state.
func (t *Txn) State() State { return t.state }

// Lock acquires key in the given mode and remembers it for release at
// commit/abort.  A wait that would close a deadlock fails at once, and any
// other times out in virtual time (see LockManager.LockAt).
func (t *Txn) Lock(key string, mode LockMode) error { return t.lock(key, mode, true) }

// TryLock is Lock failing with ErrLockBusy where Lock would wait.
func (t *Txn) TryLock(key string, mode LockMode) error { return t.lock(key, mode, false) }

func (t *Txn) lock(key string, mode LockMode, wait bool) error {
	if t.state != Active {
		return ErrTxnDone
	}
	ls, err := t.mgr.lm.LockAt(t.cursor.Now(), t.id, key, mode, wait)
	if ls != nil {
		if t.locks == nil {
			t.locks = t.lockBuf[:0]
		}
		t.locks = append(t.locks, ls)
	}
	return err
}

// Log appends a record to the WAL on behalf of the transaction; its payload is
// the concatenation of the parts given.  A record the log refuses is not
// durable: the caller must fail the operation.  A committed or aborted
// transaction logs nothing and gets ErrTxnDone.
func (t *Txn) Log(typ wal.RecordType, objectID uint32, payload ...[]byte) error {
	if t.state != Active {
		return ErrTxnDone
	}
	if t.mgr.log == nil {
		return nil
	}
	t.logBegin()
	_, err := t.mgr.log.Append(typ, t.id, objectID, payload...)
	return err
}

// Commit writes the commit record, forces the log and releases all locks.  It
// returns the transaction's final virtual time.  When the log refuses either,
// the transaction stays Active, with its locks.
func (t *Txn) Commit() (sim.Time, error) {
	if t.state != Active {
		return t.cursor.Now(), ErrTxnDone
	}
	if t.mgr.log != nil {
		t.logBegin()
		lsn, err := t.mgr.log.Append(wal.RecCommit, t.id, 0)
		if err != nil {
			return t.cursor.Now(), err
		}
		done, err := t.mgr.log.Commit(t.cursor.Now(), lsn)
		if err != nil {
			return t.cursor.Now(), err
		}
		t.cursor.AdvanceTo(done)
	}
	t.state = Committed
	t.mgr.commits++
	t.mgr.lm.ReleaseAllAt(t.cursor.Now(), t.id, t.locks)
	return t.cursor.Now(), nil
}

// Abort writes an abort record (only when the transaction logged anything)
// and releases all locks.  The engine's transactions are written to take
// locks before any modification, so abort is only used for logical aborts
// that happen before updates (e.g. the 1 % of TPC-C NewOrder transactions
// with an invalid item) and for read-only transactions (db.View).
func (t *Txn) Abort() sim.Time {
	if t.state != Active {
		return t.cursor.Now()
	}
	if t.logged {
		_, _ = t.mgr.log.Append(wal.RecAbort, t.id, 0)
	}
	t.state = Aborted
	t.mgr.aborts++
	t.mgr.lm.ReleaseAllAt(t.cursor.Now(), t.id, t.locks)
	return t.cursor.Now()
}
