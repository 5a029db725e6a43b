// Package chaos is a deterministic crash-and-recovery campaign harness.
//
// One Run drives a seeded key-value workload against a fresh database with a
// fault plan armed after schema setup, so the injected crash lands somewhere
// inside the measured workload: mid-transaction, inside a commit force,
// during a checkpoint, or in the middle of a GC relocation.  The run keeps an
// oracle of the committed state on the side; after the crash it reopens the
// device through crash recovery and verifies that
//
//   - the space manager's invariants hold,
//   - every committed row is present with its exact contents,
//   - no aborted or uncommitted row is visible,
//   - the indexes address exactly the surviving rows.
//
// The one transaction a crash can leave in doubt — the commit force was in
// flight when the device died — is allowed either outcome, but it must be all
// or nothing; the verifier accepts exactly the two states.
//
// Everything derives from Config.Seed: the workload, the crash point and the
// fault mix.  A failing seed therefore reproduces exactly, which is what
// makes the campaign a regression test rather than a flake generator.
package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"noftl"
	"noftl/internal/sim"
)

// Config parameterises one chaos run.  The zero value (plus a seed) is a
// sensible campaign member.
type Config struct {
	// Seed drives the workload and the crash point.
	Seed uint64
	// Txns is the number of transactions the workload attempts before a
	// clean crash is forced (default 250).  The injected crash usually fires
	// earlier.
	Txns int
	// CheckpointEveryBytes is the byte-triggered checkpoint cadence
	// (default 32 KiB; < 0 disables periodic checkpoints so recovery has to
	// replay the whole post-schema log — the unbounded baseline).
	CheckpointEveryBytes int64
	// CrashAfterOps pins the crash point to the Nth device command after
	// arming; 0 derives one from Seed.  < 0 disables the injected crash:
	// the run ends in a clean crash (power loss with no mid-operation cut).
	CrashAfterOps int64
	// TornTail also tears the crash-point page program, leaving a partially
	// written final WAL page for recovery to detect and truncate.
	TornTail bool
	// FailProgramEvery and FailEraseEvery inject transient program failures
	// and worn-block erase failures during the workload (0 = none); the
	// engine must absorb both without losing data.
	FailProgramEvery int64
	FailEraseEvery   int64
	// Recrashes is the number of further lives after the first recovery:
	// each re-arms the fault plan on the recovered database, runs the
	// workload again, crashes, reopens and verifies against the same oracle
	// (default 0).  The Report's workload and recovery counters describe the
	// first life only; Report.Recrashes counts the verified extra cycles.
	Recrashes int
}

func (c Config) withDefaults() Config {
	if c.Txns <= 0 {
		c.Txns = 250
	}
	if c.CheckpointEveryBytes == 0 {
		c.CheckpointEveryBytes = 32 << 10
	}
	return c
}

// Report is the outcome of one chaos run.
type Report struct {
	Seed         uint64
	Committed    int // transactions the oracle counts as durably committed
	Aborted      int // transactions rolled back on purpose
	CrashFired   bool
	InDoubt      bool // the crash landed inside a commit force
	InDoubtAlive bool // ... and the in-doubt transaction survived recovery
	Rows         int  // rows visible after recovery
	Recovery     noftl.RecoveryStats
	Recrashes    int // further crash/recover cycles verified (Config.Recrashes)
}

// delta is one transaction's pending effect: key -> new value, nil = delete.
type delta map[string][]byte

const keyWidth = 8 // "k" + 7 digits; rows are key || value

func encodeRow(key string, val []byte) []byte {
	row := make([]byte, 0, keyWidth+len(val))
	row = append(row, key...)
	return append(row, val...)
}

func decodeRow(row []byte) (string, []byte, error) {
	if len(row) < keyWidth {
		return "", nil, fmt.Errorf("chaos: short row (%d bytes)", len(row))
	}
	return string(row[:keyWidth]), row[keyWidth:], nil
}

// runner is the state that outlives a crash: the random stream and the
// oracle of the committed state with the set of live keys (for deterministic
// update/delete targets).
type runner struct {
	cfg       Config
	r         *sim.Rand
	committed map[string][]byte
	liveKeys  []string
	nextKey   int
}

// Run executes one seeded crash-recovery round (plus Config.Recrashes further
// ones on the recovered database) and verifies every recovered database
// against the oracle.  Any verification failure is returned as an error
// naming the seed.
func Run(cfg Config) (Report, error) {
	cfg = cfg.withDefaults()
	rep := Report{Seed: cfg.Seed}
	w := &runner{
		cfg:       cfg,
		r:         sim.NewRand(cfg.Seed ^ 0x9e3779b97f4a7c15),
		committed: make(map[string][]byte),
	}

	opts := []noftl.Option{}
	if cfg.CheckpointEveryBytes > 0 {
		opts = append(opts, noftl.WithCheckpointEvery(cfg.CheckpointEveryBytes))
	}
	db, err := noftl.Open(opts...)
	if err != nil {
		return rep, err
	}
	if _, err := db.CreateTable("KV", "", []noftl.Column{{Name: "k", Type: "CHAR(8)"}, {Name: "v", Type: "VARBINARY"}}); err != nil {
		return rep, err
	}
	if _, err := db.CreateIndex("KV_PK", "KV", []string{"k"}, true, ""); err != nil {
		return rep, err
	}

	// The first life reports into rep; the extra lives into a scratch report,
	// so a campaign's aggregate counters do not depend on Recrashes.
	lifeRep := &rep
	for life := 0; ; life++ {
		inDoubt, err := w.life(db, life, lifeRep)
		if err != nil {
			return rep, err
		}
		rec, err := noftl.Reopen(db.Crash())
		if err != nil {
			return rep, fmt.Errorf("chaos seed %d life %d reopen: %w", cfg.Seed, life, err)
		}
		if st, ok := rec.Recovery(); ok {
			lifeRep.Recovery = st
		}
		if err := verify(rec, w.committed, inDoubt, lifeRep); err != nil {
			rec.Close()
			return rep, fmt.Errorf("chaos seed %d life %d: %w", cfg.Seed, life, err)
		}
		if life > 0 {
			rep.Recrashes++
		}
		if life == cfg.Recrashes {
			return rep, rec.Close()
		}
		// Carry on from the recovered state: the in-doubt transaction is now
		// decided one way or the other.
		if lifeRep.InDoubtAlive {
			w.committed = applyDelta(w.committed, inDoubt)
		}
		w.liveKeys = w.liveKeys[:0]
		for k := range w.committed {
			w.liveKeys = append(w.liveKeys, k)
		}
		sort.Strings(w.liveKeys)
		db, lifeRep = rec, &Report{}
	}
}

// life arms the fault plan after schema setup or recovery — so the crash
// point lands in the workload, not in the DDL or recovery checkpoints — and
// drives the workload until it ends or the injected crash fires.  It returns
// the delta of the transaction the crash left in doubt, if any.
func (w *runner) life(db *noftl.DB, life int, rep *Report) (delta, error) {
	cfg, r := w.cfg, w.r
	tbl, _ := db.Table("KV") // both exist: Run created them, verify found them
	idx, _ := db.Index("KV_PK")
	plan := noftl.FaultPlan{
		CrashAfterOps:    cfg.CrashAfterOps,
		FailProgramEvery: cfg.FailProgramEvery,
		FailEraseEvery:   cfg.FailEraseEvery,
	}
	if plan.CrashAfterOps == 0 {
		// The workload issues a few hundred device commands after arming
		// (one WAL force per commit plus demand reads and checkpoint
		// writes); this range makes most seeds crash mid-run while leaving
		// a tail of clean-crash seeds.
		plan.CrashAfterOps = int64(r.IntRange(40, 600))
	} else if plan.CrashAfterOps < 0 {
		plan.CrashAfterOps = 0 // clean crash only
	}
	if cfg.TornTail {
		plan.TornTailBytes = r.IntRange(16, 1024)
	}
	db.Admin().ArmFaults(plan)

	fill := func(n int) []byte {
		val := make([]byte, n)
		for i := range val {
			val[i] = byte(r.Uint64())
		}
		return val
	}
	newValue := func() []byte { return fill(r.IntRange(16, 160)) }
	// Heap updates are in-place, so an update must keep the row size: reuse
	// the length of the key's current value (pending delta wins).
	sameSizeValue := func(d delta, key string) []byte {
		if v, ok := d[key]; ok && v != nil {
			return fill(len(v))
		}
		return fill(len(w.committed[key]))
	}

	for t := 0; t < cfg.Txns; t++ {
		tx := db.Begin()
		d := make(delta)
		// Shadow copies of the live-key bookkeeping: only promoted to the
		// real slices when the transaction commits.
		addKeys := []string{}
		delKeys := map[string]bool{}
		// The engine's transactions have no undo: Abort is only legal before
		// any modification (the TPC-C "logical rollback" pattern).  Aborting
		// transactions therefore only read; the mutating transactions a crash
		// cuts mid-flight are the ones recovery must discard.
		abort := r.Float64() < 0.1
		opCount := r.IntRange(1, 4)
		if abort {
			opCount = 0
			if len(w.liveKeys) > 0 {
				key := w.liveKeys[r.Intn(len(w.liveKeys))]
				if _, _, err := idx.Lookup(tx, []byte(key)); err != nil && errors.Is(err, noftl.ErrCrashed) {
					tx.Abort()
					rep.CrashFired = true
					return nil, nil
				}
			}
		}
		var opErr error
	ops:
		for o := 0; o < opCount; o++ {
			switch pick := r.Float64(); {
			case pick < 0.55 || len(w.liveKeys) == 0:
				key := fmt.Sprintf("k%07d", w.nextKey)
				w.nextKey++
				val := newValue()
				rid, err := tbl.Insert(tx, encodeRow(key, val))
				if err != nil {
					opErr = err
					break ops
				}
				if err := idx.Insert(tx, []byte(key), rid); err != nil {
					opErr = err
					break ops
				}
				d[key] = val
				addKeys = append(addKeys, key)
			case pick < 0.85:
				key := w.liveKeys[r.Intn(len(w.liveKeys))]
				if delKeys[key] {
					continue
				}
				rid, ok, err := idx.Lookup(tx, []byte(key))
				if err != nil || !ok {
					opErr = err
					break ops
				}
				val := sameSizeValue(d, key)
				if err := tbl.Update(tx, rid, encodeRow(key, val)); err != nil {
					opErr = err
					break ops
				}
				d[key] = val
			default:
				key := w.liveKeys[r.Intn(len(w.liveKeys))]
				if delKeys[key] {
					continue
				}
				rid, ok, err := idx.Lookup(tx, []byte(key))
				if err != nil || !ok {
					opErr = err
					break ops
				}
				if err := tbl.Delete(tx, rid); err != nil {
					opErr = err
					break ops
				}
				if err := idx.Delete(tx, []byte(key)); err != nil {
					opErr = err
					break ops
				}
				d[key] = nil
				delKeys[key] = true
			}
		}
		switch {
		case opErr != nil:
			tx.Abort()
			if errors.Is(opErr, noftl.ErrCrashed) {
				// Crash mid-transaction: no commit record can be durable,
				// the delta must vanish.
				rep.CrashFired = true
				return nil, nil
			}
			return nil, fmt.Errorf("chaos seed %d life %d txn %d: %w", cfg.Seed, life, t, opErr)
		case abort:
			tx.Abort()
			rep.Aborted++
		default:
			if _, err := tx.Commit(); err != nil {
				if errors.Is(err, noftl.ErrCrashed) {
					// The commit force was cut: either the commit record
					// became durable or it did not — both are acceptable,
					// but only atomically.
					rep.CrashFired = true
					rep.InDoubt = true
					return d, nil
				}
				return nil, fmt.Errorf("chaos seed %d life %d commit %d: %w", cfg.Seed, life, t, err)
			}
			rep.Committed++
			for k, v := range d {
				if v == nil {
					delete(w.committed, k)
				} else {
					w.committed[k] = v
				}
			}
			w.liveKeys = append(w.liveKeys, addKeys...)
			if len(delKeys) > 0 {
				kept := w.liveKeys[:0]
				for _, k := range w.liveKeys {
					if !delKeys[k] {
						kept = append(kept, k)
					}
				}
				w.liveKeys = kept
			}
		}
	}
	return nil, nil
}

// verify checks the recovered database against the oracle: integrity
// invariants, exact committed contents (modulo the one in-doubt transaction,
// all or nothing) and index/heap agreement.
func verify(db *noftl.DB, committed map[string][]byte, inDoubt delta, rep *Report) error {
	if err := db.Admin().VerifyIntegrity(); err != nil {
		return fmt.Errorf("integrity: %w", err)
	}
	tbl, ok := db.Table("KV")
	if !ok {
		return errors.New("table KV lost in recovery")
	}
	idx, ok := db.Index("KV_PK")
	if !ok {
		return errors.New("index KV_PK lost in recovery")
	}

	got := make(map[string][]byte)
	tx := db.Begin()
	defer tx.Abort()
	for _, row := range tbl.Rows(tx) {
		key, val, err := decodeRow(row)
		if err != nil {
			return fmt.Errorf("scan: %w", err)
		}
		got[key] = append([]byte(nil), val...)
	}
	if err := tx.Err(); err != nil {
		return fmt.Errorf("scan: %w", err)
	}
	rep.Rows = len(got)

	if equalState(got, committed) {
		rep.InDoubtAlive = false
	} else if inDoubt != nil && equalState(got, applyDelta(committed, inDoubt)) {
		rep.InDoubtAlive = true
	} else {
		return stateDiff(got, committed, inDoubt)
	}

	// Index agreement: every surviving key resolves through the index to its
	// exact row, and the index holds nothing else.
	if n := int(idx.Entries()); n != len(got) {
		return fmt.Errorf("index has %d entries, heap has %d rows", n, len(got))
	}
	for key, val := range got {
		rid, ok, err := idx.Lookup(tx, []byte(key))
		if err != nil {
			return fmt.Errorf("lookup %q: %w", key, err)
		}
		if !ok {
			return fmt.Errorf("key %q present in heap but missing from index", key)
		}
		row, err := tbl.Get(tx, rid)
		if err != nil {
			return fmt.Errorf("get %q: %w", key, err)
		}
		if !bytes.Equal(row, encodeRow(key, val)) {
			return fmt.Errorf("index for %q addresses a different row", key)
		}
	}
	return nil
}

func applyDelta(base map[string][]byte, d delta) map[string][]byte {
	out := make(map[string][]byte, len(base)+len(d))
	for k, v := range base {
		out[k] = v
	}
	for k, v := range d {
		if v == nil {
			delete(out, k)
		} else {
			out[k] = v
		}
	}
	return out
}

func equalState(got, want map[string][]byte) bool {
	if len(got) != len(want) {
		return false
	}
	for k, v := range want {
		g, ok := got[k]
		if !ok || !bytes.Equal(g, v) {
			return false
		}
	}
	return true
}

// stateDiff renders a compact mismatch description for a failed run.
func stateDiff(got, committed map[string][]byte, inDoubt delta) error {
	missing, extra, changed := 0, 0, 0
	for k, v := range committed {
		g, ok := got[k]
		switch {
		case !ok:
			missing++
		case !bytes.Equal(g, v):
			changed++
		}
	}
	for k := range got {
		if _, ok := committed[k]; !ok {
			extra++
		}
	}
	return fmt.Errorf("recovered state matches neither oracle candidate: %d committed rows missing, %d unexpected rows, %d changed rows (in-doubt txn: %d keys)",
		missing, extra, changed, len(inDoubt))
}
