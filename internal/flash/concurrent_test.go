package flash_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"noftl"
	"noftl/internal/flash"
)

// TestConcurrentProgramsAreSafe has one goroutine per die of a 4-die device
// load a table of its own, in a one-die region, with batched inserts: the
// packed pages go to flash as program batches on every die at once, through
// the public API, which runs one operation at a time.  Every program is
// counted, and every row reads back.  Run it with -race.
func TestConcurrentProgramsAreSafe(t *testing.T) {
	cfg := noftl.DefaultConfig()
	cfg.Flash.Geometry = flash.Geometry{
		Channels: 2, DiesPerChannel: 2, PlanesPerDie: 1,
		BlocksPerDie: 64, PagesPerBlock: 8, PageSize: 2048,
	}
	db, err := noftl.OpenConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	dies := cfg.Flash.Geometry.Dies()
	tables := make([]*noftl.Table, dies)
	for d := range tables {
		ts := ""
		if d < dies-1 { // the default region keeps the last die, for the log
			ts = fmt.Sprint("S", d)
			if err := db.Exec(fmt.Sprintf("CREATE REGION R%d (MAX_CHIPS=1); CREATE TABLESPACE %s (REGION=R%d)", d, ts, d)); err != nil {
				t.Fatal(err)
			}
		}
		if tables[d], err = db.CreateTable(fmt.Sprint("T", d), ts, nil); err != nil {
			t.Fatal(err)
		}
	}
	const rowsPerDie = 64
	row := func(d int) []byte { return bytes.Repeat([]byte{byte(d + 1)}, 1000) }
	rids := make([][]noftl.RID, dies)
	var wg sync.WaitGroup
	for d := 0; d < dies; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			for i := 0; i < rowsPerDie; i += 8 {
				rows := make([][]byte, 8)
				for j := range rows {
					rows[j] = row(d)
				}
				if err := db.Update(func(tx *noftl.Tx) error {
					got, err := tables[d].InsertBatch(tx, rows)
					rids[d] = append(rids[d], got...)
					return err
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(d)
	}
	wg.Wait()
	if _, err := db.FlushAll(db.SimulatedTime()); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.Device.Programs != st.Space.HostWrites {
		t.Fatalf("the device counted %d programs for %d host writes", st.Device.Programs, st.Space.HostWrites)
	}
	var perDie int64
	for _, d := range st.Device.PerDie {
		if d.Programs == 0 {
			t.Fatalf("die %d was never programmed", d.Die)
		}
		perDie += d.Programs
	}
	if perDie != st.Device.Programs {
		t.Fatalf("the dies counted %d programs, the device %d", perDie, st.Device.Programs)
	}
	if err := db.View(func(tx *noftl.Tx) error {
		for d, tbl := range tables {
			for _, rid := range rids[d] {
				got, err := tbl.Get(tx, rid)
				if err != nil {
					return err
				}
				if !bytes.Equal(got, row(d)) {
					return fmt.Errorf("table %d %v reads back wrong", d, rid)
				}
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
