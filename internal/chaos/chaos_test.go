package chaos

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"

	"noftl"
)

// TestCrashRecoverySeeds is the campaign property test: 64 seeded crash
// points — plain, torn-tail, transient program faults, worn-block erase
// faults — must all reopen verify-clean with every committed row present and
// no uncommitted row visible.  Run() fails the run on any violation, so the
// assertion here is simply "no seed errors"; the aggregate counters guard
// against the campaign silently degenerating (e.g. crashes never firing).
func TestCrashRecoverySeeds(t *testing.T) {
	const seeds = 64
	res, err := Campaign(2026, seeds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res)
	if res.Runs != seeds {
		t.Fatalf("campaign ran %d of %d seeds", res.Runs, seeds)
	}
	if res.CrashesFired < seeds/4 {
		t.Errorf("only %d/%d seeds crashed mid-run; the crash-point range no longer covers the workload", res.CrashesFired, seeds)
	}
	if res.InDoubt == 0 {
		t.Error("no seed cut a commit force; in-doubt handling went unexercised")
	}
	if res.TornTailsSeen == 0 {
		t.Error("no recovery saw a torn tail; torn-program injection went unexercised")
	}
	if res.RowsRecovered == 0 {
		t.Error("no rows recovered across the whole campaign")
	}
	if res.Recrashes == 0 {
		t.Error("no seed crashed again after a recovery")
	}
}

// TestCrashAgainAfterRecovery is the regression test for a recovered log
// restarting at LSN 1 while the crashed instance's trimmed log pages were
// still on flash: the next recovery took the old tail for the live run and
// refused with "log prefix missing".  Each run loads, crashes, reopens, does
// more committed work on the recovered database and crashes again, three
// times over, checking the oracle after every reopen — with injected
// mid-operation crashes, torn tails and clean power losses.
func TestCrashAgainAfterRecovery(t *testing.T) {
	for _, cfg := range []Config{
		{Seed: 21, Recrashes: 3},
		{Seed: 22, Recrashes: 3, TornTail: true},
		{Seed: 23, Recrashes: 3, CrashAfterOps: -1},
		{Seed: 24, Recrashes: 3, CrashAfterOps: -1, CheckpointEveryBytes: -1},
	} {
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Recrashes != 3 || rep.Rows == 0 {
			t.Fatalf("seed %d: degenerate run: %+v", cfg.Seed, rep)
		}
	}
}

// TestCheckpointsBoundReplay is the tentpole's bounding property: on the same
// workload, recovery after periodic checkpoints must replay less than 25 % of
// the bytes replayed with checkpoints disabled.
func TestCheckpointsBoundReplay(t *testing.T) {
	base := Config{Seed: 7, Txns: 300, CrashAfterOps: -1} // clean crash: identical workloads
	unbounded := base
	unbounded.CheckpointEveryBytes = -1
	noCkpt, err := Run(unbounded)
	if err != nil {
		t.Fatal(err)
	}
	bounded := base // default 32 KiB cadence
	withCkpt, err := Run(bounded)
	if err != nil {
		t.Fatal(err)
	}
	if noCkpt.Committed != withCkpt.Committed {
		t.Fatalf("workloads diverged: %d vs %d committed", noCkpt.Committed, withCkpt.Committed)
	}
	if noCkpt.Recovery.ReplayedBytes == 0 {
		t.Fatal("unbounded run replayed nothing; the baseline is meaningless")
	}
	ratio := float64(withCkpt.Recovery.ReplayedBytes) / float64(noCkpt.Recovery.ReplayedBytes)
	t.Logf("replayed %d bytes with checkpoints vs %d without (ratio %.3f)",
		withCkpt.Recovery.ReplayedBytes, noCkpt.Recovery.ReplayedBytes, ratio)
	if ratio >= 0.25 {
		t.Fatalf("checkpoints do not bound replay: ratio %.3f >= 0.25", ratio)
	}
}

// TestWornBlockCampaign leans on the wear faults: every 12th erase fails
// (marking the block bad mid-GC-relocation) and every 29th program faults
// transiently.  GC and wear leveling must absorb both without losing a live
// page, and the post-crash recovery must still verify clean.
func TestWornBlockCampaign(t *testing.T) {
	for _, seed := range []uint64{11, 12, 13, 14} {
		rep, err := Run(Config{
			Seed:             seed,
			Txns:             400,
			CrashAfterOps:    -1, // no injected crash: the faults are the story
			FailEraseEvery:   12,
			FailProgramEvery: 29,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Committed == 0 || rep.Rows == 0 {
			t.Fatalf("seed %d: degenerate run (%d committed, %d rows)", seed, rep.Committed, rep.Rows)
		}
	}
}

// TestGroupCommitCrashAtomicity crashes a database while several goroutines
// commit through the WAL's group-commit path.  The durable log is an LSN
// prefix, so after recovery every transaction whose Commit returned success
// must be fully present, and every transaction must be all-or-nothing — a
// crashed leader's followers either all replay or all vanish, never a row of
// one and not the other.
func TestGroupCommitCrashAtomicity(t *testing.T) {
	db, err := noftl.Open(noftl.WithCheckpointEvery(64 << 10))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("G", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := db.CreateIndex("G_PK", "G", []string{"k"}, true, "")
	if err != nil {
		t.Fatal(err)
	}
	db.Admin().ArmFaults(noftl.FaultPlan{CrashAfterOps: 300})

	const workers, txnsPer, rowsPer = 4, 40, 3
	// acked[w][t] = the worker's t-th transaction got a successful Commit.
	acked := make([][]bool, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		acked[w] = make([]bool, txnsPer)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < txnsPer; i++ {
				tx := db.Begin()
				ok := true
				for r := 0; r < rowsPer; r++ {
					key := []byte{byte('a' + w), byte(i), byte(r)}
					rid, err := tbl.Insert(tx, append([]byte{byte(w), byte(i), byte(r)}, key...))
					if err == nil {
						err = idx.Insert(tx, key, rid)
					}
					if err != nil {
						ok = false
						break
					}
				}
				if !ok {
					tx.Abort()
					return
				}
				if _, err := tx.Commit(); err != nil {
					return
				}
				acked[w][i] = true
			}
		}(w)
	}
	wg.Wait()

	rec, err := noftl.Reopen(db.Crash())
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if err := rec.Admin().VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	rtbl, ok := rec.Table("G")
	if !ok {
		t.Fatal("table G lost in recovery")
	}
	// Count surviving rows per (worker, txn).
	survived := make(map[[2]int]int)
	tx := rec.Begin()
	defer tx.Abort()
	for _, row := range rtbl.Rows(tx) {
		survived[[2]int{int(row[0]), int(row[1])}]++
	}
	if err := tx.Err(); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < txnsPer; i++ {
			n := survived[[2]int{w, i}]
			if n != 0 && n != rowsPer {
				t.Fatalf("worker %d txn %d survived partially: %d of %d rows", w, i, n, rowsPer)
			}
			if acked[w][i] && n != rowsPer {
				t.Fatalf("worker %d txn %d was acknowledged but lost in recovery", w, i)
			}
		}
	}
}

// TestChaosSeedDigest pins one campaign member, seed 13 of
// TestCrashRecoverySeeds' campaign (2026 + 13 × 0x9e3779b97f4a7c15: a torn
// tail and a failed erase every 97), by a SHA-256 of its Report in Go syntax,
// the recovery's statistics included.  A change that must not move what the
// engine writes, where the crash lands or what recovery finds leaves it as it
// is.
func TestChaosSeedDigest(t *testing.T) {
	const want = "386bb37df8dd7044e6e6329f851bc1cb33da2367465355dc97b8f265757843ba"
	rep, err := Run(Config{Seed: 0x08d12e6b76c854fb, TornTail: true, FailEraseEvery: 97})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.CrashFired || !rep.Recovery.CheckpointFound {
		t.Fatalf("the seed no longer crashes after a checkpoint: %+v", rep)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%#v", rep)))); got != want {
		t.Errorf("report digest %s, recorded %s\n%+v", got, want, rep)
	}
}
