package sim_test

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"noftl"
	"noftl/internal/flash"
	"noftl/internal/sim"
)

// TestResourceConcurrentAccounting has 8 goroutines read 1000 rows each at
// virtual time zero from a one-die device, through the public API, which
// runs one operation at a time.  The die is a resource that serves one
// command at a time: its busy time is exactly the service time of the
// commands it executed, and the last read completes no earlier than all of
// them back to back.  Run it with -race.
func TestResourceConcurrentAccounting(t *testing.T) {
	cfg := noftl.DefaultConfig()
	cfg.Flash.Geometry = flash.Geometry{
		Channels: 1, DiesPerChannel: 1, PlanesPerDie: 1,
		BlocksPerDie: 64, PagesPerBlock: 32, PageSize: 2048,
	}
	cfg.BufferPoolPages = 16
	db, err := noftl.OpenConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("T", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	const pages = 256
	rows := make([][]byte, pages)
	for i := range rows {
		rows[i] = bytes.Repeat([]byte{byte(i)}, 1500)
	}
	var rids []noftl.RID
	if err := db.Update(func(tx *noftl.Tx) (err error) {
		rids, err = tbl.InsertBatch(tx, rows)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Checkpoint(db.SimulatedTime()); err != nil {
		t.Fatal(err)
	}
	db.ResetStatistics()

	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := sim.NewRand(uint64(w + 1))
			for i := 0; i < perWorker; i++ {
				tx := db.BeginAt(0)
				_, err := tbl.Get(tx, rids[r.Intn(pages)])
				tx.Abort()
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := db.Stats()
	tm := cfg.Flash.Timing
	die := st.Device.PerDie[0]
	want := time.Duration(die.Reads)*tm.ReadPage + time.Duration(die.Programs)*tm.ProgramPage +
		time.Duration(die.Erases)*tm.EraseBlock + time.Duration(die.Copybacks)*(tm.ReadPage+tm.ProgramPage)
	if die.Reads == 0 || die.BusyTime != want {
		t.Fatalf("die busy %v for %d reads, %d programs, %d erases, %d copybacks: want %v",
			die.BusyTime, die.Reads, die.Programs, die.Erases, die.Copybacks, want)
	}
	if last := db.SimulatedTime(); last < sim.Time(die.BusyTime) {
		t.Fatalf("last completion %v before the die's %v of serialized service", last, die.BusyTime)
	}
}
