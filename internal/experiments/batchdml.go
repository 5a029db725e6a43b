package experiments

import (
	"bytes"
	"fmt"
	"time"

	"noftl"
)

// BatchDMLResult is the outcome of the batch-DML experiment: the same row
// set inserted and read back through the public API twice — once
// row-at-a-time (one transaction per row, the pre-v2 idiom) and once through
// InsertBatch/GetBatch.  Scheduler submissions and simulated time quantify
// what the batch-first surface buys; the submission ratio is the metric the
// CI baseline gates.
type BatchDMLResult struct {
	Rows    int
	RowSize int
	// Insert path: one committed transaction per row vs one InsertBatch.
	InsertSerialSubmissions int64
	InsertBatchSubmissions  int64
	InsertSubmissionRatio   float64 // serial / batch, higher is better
	InsertSerialTime        time.Duration
	InsertBatchTime         time.Duration
	InsertSpeedup           float64
	// Read path: row-at-a-time Get vs chunked GetBatch over a cold pool.
	GetSerialSubmissions int64
	GetBatchSubmissions  int64
	GetSerialTime        time.Duration
	GetBatchTime         time.Duration
	GetSpeedup           float64
	// Scheduler batch high-water marks per phase: the largest single
	// die-striped submission (the batched paths dispatch hundreds of pages
	// per submission vs ~1 on the serial path — exactly where the speedup
	// comes from).
	InsertSerialMaxBatch int64
	InsertBatchMaxBatch  int64
	GetSerialMaxBatch    int64
	GetBatchMaxBatch     int64
}

func (r BatchDMLResult) String() string {
	return fmt.Sprintf(
		"batch DML: %d rows of %d bytes on the 8-die default device\n"+
			"  inserts: %d submissions / %v serial vs %d submissions / %v batched (%.0fx fewer submissions, %.1fx faster)\n"+
			"  reads:   %d submissions / %v serial vs %d submissions / %v batched (%.1fx faster)",
		r.Rows, r.RowSize,
		r.InsertSerialSubmissions, r.InsertSerialTime,
		r.InsertBatchSubmissions, r.InsertBatchTime,
		r.InsertSubmissionRatio, r.InsertSpeedup,
		r.GetSerialSubmissions, r.GetSerialTime,
		r.GetBatchSubmissions, r.GetBatchTime, r.GetSpeedup)
}

// RunBatchDML measures the batch-first DML API against the row-at-a-time
// path on the default 8-die device.  Everything is driven through the public
// noftl surface; only virtual (simulated) time and scheduler submission
// counts are compared, so the result is deterministic.
func RunBatchDML(rows, rowSize int) (BatchDMLResult, error) {
	res := BatchDMLResult{Rows: rows, RowSize: rowSize}
	row := bytes.Repeat([]byte{'b'}, rowSize)

	// A pool smaller than the row set's page footprint, so the read phase
	// hits the device rather than memory.
	open := func() (*noftl.DB, *noftl.Table, error) {
		db, err := noftl.Open(noftl.WithBufferPoolPages(64))
		if err != nil {
			return nil, nil, err
		}
		if err := db.Exec(fmt.Sprintf("CREATE TABLE B (v VARCHAR(%d))", rowSize)); err != nil {
			db.Close()
			return nil, nil, err
		}
		tbl, _ := db.Table("B")
		return db, tbl, nil
	}

	// Row-at-a-time: one committed transaction per row, then cold reads one
	// Get at a time.
	db, tbl, err := open()
	if err != nil {
		return res, err
	}
	defer db.Close()
	rids := make([]noftl.RID, 0, rows)
	for i := 0; i < rows; i++ {
		tx := db.Begin()
		rid, err := tbl.Insert(tx, row)
		if err != nil {
			return res, err
		}
		if _, err := tx.Commit(); err != nil {
			return res, err
		}
		rids = append(rids, rid)
	}
	st := db.Stats()
	res.InsertSerialSubmissions = st.Scheduler.Batches
	res.InsertSerialTime = st.Simulated
	res.InsertSerialMaxBatch = st.Scheduler.MaxBatch

	if _, err := db.FlushAll(db.SimulatedTime()); err != nil {
		return res, err
	}
	db.ResetStatistics()
	err = db.View(func(tx *noftl.Tx) error {
		for _, rid := range rids {
			if _, err := tbl.Get(tx, rid); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	st = db.Stats()
	res.GetSerialSubmissions = st.Scheduler.Batches
	res.GetSerialTime = st.Simulated
	res.GetSerialMaxBatch = st.Scheduler.MaxBatch

	// Batched: one InsertBatch transaction, then cold chunked GetBatch.
	db2, tbl2, err := open()
	if err != nil {
		return res, err
	}
	defer db2.Close()
	all := make([][]byte, rows)
	for i := range all {
		all[i] = row
	}
	var rids2 []noftl.RID
	err = db2.Update(func(tx *noftl.Tx) error {
		var err error
		rids2, err = tbl2.InsertBatch(tx, all)
		return err
	})
	if err != nil {
		return res, err
	}
	st = db2.Stats()
	res.InsertBatchSubmissions = st.Scheduler.Batches
	res.InsertBatchTime = st.Simulated
	res.InsertBatchMaxBatch = st.Scheduler.MaxBatch

	if _, err := db2.FlushAll(db2.SimulatedTime()); err != nil {
		return res, err
	}
	db2.ResetStatistics()
	// Chunked so one batch's pinned pages stay well below the pool size.
	const chunk = 256
	err = db2.View(func(tx *noftl.Tx) error {
		for lo := 0; lo < len(rids2); lo += chunk {
			hi := min(lo+chunk, len(rids2))
			if _, err := tbl2.GetBatch(tx, rids2[lo:hi]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	st = db2.Stats()
	res.GetBatchSubmissions = st.Scheduler.Batches
	res.GetBatchTime = st.Simulated
	res.GetBatchMaxBatch = st.Scheduler.MaxBatch

	if res.InsertBatchSubmissions > 0 {
		res.InsertSubmissionRatio = float64(res.InsertSerialSubmissions) / float64(res.InsertBatchSubmissions)
	}
	if res.InsertBatchTime > 0 {
		res.InsertSpeedup = float64(res.InsertSerialTime) / float64(res.InsertBatchTime)
	}
	if res.GetBatchTime > 0 {
		res.GetSpeedup = float64(res.GetSerialTime) / float64(res.GetBatchTime)
	}
	return res, nil
}
