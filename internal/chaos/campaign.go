package chaos

import "fmt"

// CampaignResult aggregates a multi-seed chaos campaign.
type CampaignResult struct {
	Runs            int
	CrashesFired    int   // runs whose injected crash hit before the workload ended
	CleanCrashes    int   // runs that ended in a plain power loss
	InDoubt         int   // runs that cut a commit force
	InDoubtAlive    int   // ... where the in-doubt transaction survived
	TornTailsSeen   int   // recoveries that detected and truncated a torn tail
	Recrashes       int   // further crash/recover cycles verified on recovered databases
	RowsRecovered   int64 // total rows verified across all recoveries
	ReplayedRecords int64 // total log records recovery replayed
	ReplayedBytes   int64 // total log bytes recovery replayed
}

func (r CampaignResult) String() string {
	return fmt.Sprintf("chaos: %d runs, %d injected crashes (%d in-doubt, %d survived), %d clean, %d torn tails, %d crashes after a recovery, %d rows verified, %d records / %d bytes replayed",
		r.Runs, r.CrashesFired, r.InDoubt, r.InDoubtAlive, r.CleanCrashes,
		r.TornTailsSeen, r.Recrashes, r.RowsRecovered, r.ReplayedRecords, r.ReplayedBytes)
}

// Campaign runs n seeded chaos rounds derived from baseSeed, cycling fault
// flavours so the seeds cover plain crashes, torn tails, transient program
// failures, worn-block erase failures and crashing again after a recovery.
// Every counter but Recrashes describes the runs' first lives, so adding the
// crash-again flavour left the gated replay volume as it was.  The first
// verification failure aborts the campaign with the offending seed in the
// error.
func Campaign(baseSeed uint64, n int, base Config) (CampaignResult, error) {
	var res CampaignResult
	for i := 0; i < n; i++ {
		cfg := base
		cfg.Seed = baseSeed + uint64(i)*0x9e3779b97f4a7c15
		// Deterministic fault flavour rotation.
		if i%3 == 1 {
			cfg.TornTail = true
		}
		if i%4 == 2 && cfg.FailProgramEvery == 0 {
			cfg.FailProgramEvery = 113
		}
		if i%5 == 3 && cfg.FailEraseEvery == 0 {
			cfg.FailEraseEvery = 97
		}
		if i%7 == 5 && cfg.Recrashes == 0 {
			cfg.Recrashes = 2
		}
		rep, err := Run(cfg)
		if err != nil {
			return res, err
		}
		res.Runs++
		if rep.CrashFired {
			res.CrashesFired++
		} else {
			res.CleanCrashes++
		}
		if rep.InDoubt {
			res.InDoubt++
		}
		if rep.InDoubtAlive {
			res.InDoubtAlive++
		}
		if rep.Recovery.TornTail {
			res.TornTailsSeen++
		}
		res.Recrashes += rep.Recrashes
		res.RowsRecovered += int64(rep.Rows)
		res.ReplayedRecords += int64(rep.Recovery.ReplayedRecords)
		res.ReplayedBytes += rep.Recovery.ReplayedBytes
	}
	return res, nil
}
