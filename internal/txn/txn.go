// Package txn provides the transaction manager of the reproduction's storage
// engine: transaction identities, strict two-phase locking on logical keys,
// commit/abort bookkeeping and per-transaction virtual-time accounting.
//
// The lock table is one map under one mutex.  Lock waits are real
// (goroutine blocking), but the wait *timeout* is virtual-time-deterministic:
// a waiter gives up when the contended key has seen more than the configured
// budget of simulated time pass (measured from release to release) while the
// lock stayed unavailable.  That makes ErrLockTimeout independent of host
// speed and parallel test load; a generous wall-clock fallback remains as
// the safety net for true deadlocks, where no release (and hence no virtual
// progress on the key) ever happens.  TPC-C transactions acquire their locks
// in a canonical order, so deadlocks cannot form in the benchmark itself.
package txn

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
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
	// ErrLockTimeout reports a lock wait that exceeded the configured
	// timeout (treated as a deadlock victim).
	ErrLockTimeout = errors.New("txn: lock wait timeout")
	// ErrTxnDone reports an operation on a committed or aborted transaction.
	ErrTxnDone = errors.New("txn: transaction already finished")
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

// LockManager implements strict two-phase locking over string keys.  All
// methods are safe for concurrent use.  One mutex guards the lock table, and
// waiters of every key share one condition variable: a release wakes them
// all, and each re-checks its own key.
type LockManager struct {
	mu           sync.Mutex
	cond         sync.Cond // L is &mu
	locks        map[string]*lockState
	free         []lockState   // the rest of the chunk of 256 new states are carved from
	held         int64         // keys some transaction holds
	waiting      int64         // transactions blocked on a key
	timeout      time.Duration // virtual-time wait budget (ns, 1:1 with sim time)
	wallFallback time.Duration // wall-clock deadlock safety net
	waits        *metrics.Counter
	timeouts     *metrics.Counter
}

// NewLockManager creates a lock manager with the given wait timeout (zero
// selects one second).  The timeout is interpreted in virtual time when the
// caller provides a virtual-time context (LockAt); the wall-clock fallback
// defaults to ten times the timeout, clamped to [1s, 60s].
func NewLockManager(timeout time.Duration) *LockManager {
	if timeout <= 0 {
		timeout = time.Second
	}
	fallback := 10 * timeout
	if fallback < time.Second {
		fallback = time.Second
	}
	if fallback > time.Minute {
		fallback = time.Minute
	}
	lm := &LockManager{timeout: timeout, wallFallback: fallback, locks: make(map[string]*lockState)}
	lm.cond.L = &lm.mu
	lm.bind(metrics.NewRegistry())
	return lm
}

// bind resolves the lock manager's children of its metric families on reg.
func (lm *LockManager) bind(reg *metrics.Registry) {
	lm.waits = reg.Counter("noftl_txn_lock_waits_total",
		"Lock acquisitions that had to block.").With()
	lm.timeouts = reg.Counter("noftl_txn_lock_timeouts_total",
		"Lock waits that ended as deadlock victims (ErrLockTimeout).").With()
}

// SetWallFallback overrides the wall-clock deadlock safety net (tests use a
// short fallback to exercise it quickly).
func (lm *LockManager) SetWallFallback(d time.Duration) {
	if d > 0 {
		lm.wallFallback = d
	}
}

// state returns the lock state of key, creating it on first use.  Caller
// holds lm.mu.
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

// wake broadcasts to every waiter under the mutex.  A waiter holds the mutex
// from its last check until Wait has registered it, so a wake-up taken under
// the mutex cannot fall in between and be lost.
func (lm *LockManager) wake() {
	lm.mu.Lock()
	lm.cond.Broadcast()
	lm.mu.Unlock()
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
	lm.mu.Lock()
	defer lm.mu.Unlock()
	return LockStats{Waits: lm.waits.Value(), Timeouts: lm.timeouts.Value(), Held: lm.held, Waiting: lm.waiting}
}

// LockAt acquires key in the given mode on behalf of txnID, whose current
// virtual time is now, blocking until the lock is granted or the wait times
// out.  Re-acquiring a lock already held (including upgrading shared to
// exclusive when the transaction is the sole reader) succeeds.  It returns the
// key's state when the grant is the transaction's first hold on key, for
// ReleaseAllAt, and nil otherwise.
//
// The wait deadline is virtual: it expires when the key's release frontier
// (the highest virtual time of any release of this key) moves more than the
// configured timeout past the frontier observed when the wait began, while
// the lock remains unavailable.  A wall-clock fallback (SetWallFallback)
// catches deadlocks, where the frontier never moves.
func (lm *LockManager) LockAt(now sim.Time, txnID uint64, key string, mode LockMode) (*lockState, error) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	ls := lm.state(key)
	waited := false
	var vdeadline sim.Time
	var wallDeadline time.Time
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
				ls.waiting--
				lm.waiting--
			}
			if holder {
				return nil, nil
			}
			return ls, nil
		}
		if !waited {
			waited = true
			lm.waits.Inc()
			ls.waiting++
			lm.waiting++
			// Anchor the virtual deadline to the key's release frontier, not
			// just the waiter's own cursor: cursors of independent workers
			// drift apart, and a waiter behind the frontier must still be
			// given a full timeout of *future* virtual activity.
			vdeadline = max(now, ls.maxRelease).Add(lm.timeout)
			wallDeadline = time.Now().Add(lm.wallFallback)
		} else if ls.maxRelease > vdeadline || time.Now().After(wallDeadline) {
			ls.waiting--
			lm.waiting--
			lm.timeouts.Inc()
			return nil, fmt.Errorf("%w: txn %d key %q", ErrLockTimeout, txnID, key)
		}
		// Wake ourselves up at the wall deadline so the fallback is honoured
		// even if nobody ever releases the lock.  Any release wakes us too;
		// a release of another key moves neither this key's frontier nor
		// the deadlines, so the loop just waits again.
		timer := time.AfterFunc(time.Until(wallDeadline), lm.wake)
		lm.cond.Wait()
		timer.Stop()
	}
}

// grantable reports whether txnID may take key in mode.  Caller holds lm.mu.
func grantable(ls *lockState, txnID uint64, mode LockMode) bool {
	if mode == Shared {
		return ls.writer == 0 || ls.writer == txnID
	}
	// Exclusive: no other writer and no other readers.
	if ls.writer != 0 && ls.writer != txnID {
		return false
	}
	for r := range ls.readers {
		if r != txnID {
			return false
		}
	}
	return true
}

// ReleaseAllAt releases txnID's holds on the keys whose states LockAt
// returned and advances each key's virtual release frontier to now, which is
// what drives waiters' virtual timeouts forward.  It wakes the waiters once,
// after the last key.
func (lm *LockManager) ReleaseAllAt(now sim.Time, txnID uint64, held []*lockState) {
	if len(held) == 0 {
		return // a transaction that took no lock wakes nobody
	}
	lm.mu.Lock()
	defer lm.mu.Unlock()
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
	nextID atomic.Uint64
	lm     *LockManager
	log    *wal.Log
	clock  *sim.Clock
	// children of the noftl_txn_*_total families (bind)
	started *metrics.Counter
	commits *metrics.Counter
	aborts  *metrics.Counter
}

// NewManager creates a transaction manager.  log may be nil (no logging) and
// clock may be nil (no global time publication).
func NewManager(lm *LockManager, log *wal.Log, clock *sim.Clock) *Manager {
	if lm == nil {
		lm = NewLockManager(0)
	}
	m := &Manager{lm: lm, log: log, clock: clock}
	m.bind(metrics.NewRegistry())
	return m
}

// bind resolves the manager's children of its metric families on reg.
func (m *Manager) bind(reg *metrics.Registry) {
	m.started = reg.Counter("noftl_txn_started_total", "Transactions started.").With()
	m.commits = reg.Counter("noftl_txn_committed_total", "Transactions committed.").With()
	m.aborts = reg.Counter("noftl_txn_aborted_total", "Transactions aborted.").With()
}

// AttachObs re-binds the counters of the manager and its lock manager to the
// shared registry reg.  Attach before the first transaction begins.
func (m *Manager) AttachObs(reg *metrics.Registry) {
	m.bind(reg)
	m.lm.bind(reg)
}

// ResetCounters zeroes the transaction and lock-contention counters (after
// warm-up); transaction ids and held locks are untouched.
func (m *Manager) ResetCounters() {
	m.started.Reset()
	m.commits.Reset()
	m.aborts.Reset()
	m.lm.waits.Reset()
	m.lm.timeouts.Reset()
}

// LockManager returns the shared lock manager.
func (m *Manager) LockManager() *LockManager { return m.lm }

// NextID returns the highest transaction id handed out so far (checkpoints
// persist it so recovery can seed a fresh manager past it).
func (m *Manager) NextID() uint64 { return m.nextID.Load() }

// SeedNextID raises the id counter so that future transactions receive ids
// strictly greater than next.  Recovery uses it to keep replayed transaction
// ids from being reissued.
func (m *Manager) SeedNextID(next uint64) {
	for {
		cur := m.nextID.Load()
		if cur >= next {
			return
		}
		if m.nextID.CompareAndSwap(cur, next) {
			return
		}
	}
}

// Started, Committed and Aborted return the transaction counters.
func (m *Manager) Started() int64   { return m.started.Value() }
func (m *Manager) Committed() int64 { return m.commits.Value() }
func (m *Manager) Aborted() int64   { return m.aborts.Value() }

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
	m.started.Inc()
	t := Txn{id: m.nextID.Add(1), mgr: m, cursor: *sim.NewCursor(m.clock), state: Active, start: now}
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
// commit/abort.  The wait timeout is virtual-time-deterministic (see
// LockManager.LockAt).
func (t *Txn) Lock(key string, mode LockMode) error {
	if t.state != Active {
		return ErrTxnDone
	}
	ls, err := t.mgr.lm.LockAt(t.cursor.Now(), t.id, key, mode)
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

// Commit writes the commit record, forces the log (joining the group commit
// of any concurrent committers) and releases all locks.  It returns the
// transaction's final virtual time.
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
	t.mgr.commits.Inc()
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
	t.mgr.aborts.Inc()
	t.mgr.lm.ReleaseAllAt(t.cursor.Now(), t.id, t.locks)
	return t.cursor.Now()
}
