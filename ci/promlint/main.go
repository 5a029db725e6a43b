// Command promlint is the CI observability gate: it boots a database with a
// metrics listener, drives an update-heavy workload until garbage collection
// fires, scrapes /metrics over real HTTP and validates the exposition with
// the in-repo pure-Go linter (internal/metrics.LintExposition) — no external
// promtool needed.  It fails when the exposition is invalid, has fewer than
// 10 metric families, lacks die- and region-labeled series, or lacks the
// per-object family with at least two objects.
//
// With -trace-out the run's event trace is additionally dumped as JSONL, so
// the workflow can feed it to `noftl-trace summarize` and check the GC
// interference report.
//
// Usage:
//
//	go run ./ci/promlint [-trace-out trace.jsonl]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"

	"noftl"
	"noftl/internal/core"
	"noftl/internal/flash"
	"noftl/internal/metrics"
)

func main() {
	traceOut := flag.String("trace-out", "", "dump the run's event trace to this file as JSONL")
	minFamilies := flag.Int("min-families", 10, "fail when the exposition has fewer metric families")
	flag.Parse()
	if err := run(*traceOut, *minFamilies); err != nil {
		fmt.Fprintf(os.Stderr, "promlint: %v\n", err)
		os.Exit(1)
	}
}

func run(traceOut string, minFamilies int) error {
	// A tiny device with background GC disabled: the churn below forces
	// foreground collections, so the trace carries the GC windows the
	// summarizer reports on.
	cfg := noftl.DefaultConfig()
	cfg.Flash.Geometry = flash.Geometry{
		Channels: 2, DiesPerChannel: 2, PlanesPerDie: 1,
		BlocksPerDie: 16, PagesPerBlock: 16, PageSize: 2048,
	}
	cfg.BufferPoolPages = 32
	cfg.Space = core.DefaultOptions()
	cfg.Space.DisableBackgroundGC = true

	// Light checkpoints truncate the log each round; without them the
	// row-image WAL fills the tiny DEFAULT region before GC ever runs.
	db, err := noftl.OpenConfig(cfg,
		noftl.WithMetricsListener("127.0.0.1:0"),
		noftl.WithTraceBuffer(1<<17),
		noftl.WithLightCheckpoints())
	if err != nil {
		return err
	}
	defer db.Close()

	if err := workload(db); err != nil {
		return err
	}
	if st := db.Stats().Space; st.GCRuns == 0 {
		return fmt.Errorf("workload did not trigger GC (runs=0); the gate would not cover GC families")
	}

	body, err := scrape("http://" + db.MetricsAddr() + "/metrics")
	if err != nil {
		return err
	}
	lint := metrics.LintExposition(body)
	for _, p := range lint.Problems {
		fmt.Fprintf(os.Stderr, "promlint: %s\n", p)
	}
	if !lint.Valid() {
		return fmt.Errorf("exposition has %d problems", len(lint.Problems))
	}
	if len(lint.Families) < minFamilies {
		return fmt.Errorf("exposition has %d families, want >= %d", len(lint.Families), minFamilies)
	}
	if len(lint.LabelValues("die")) == 0 {
		return fmt.Errorf("no die-labeled series in the exposition")
	}
	if len(lint.LabelValues("region")) == 0 {
		return fmt.Errorf("no region-labeled series in the exposition")
	}
	named := 0
	for _, object := range lint.LabelValues("object") {
		if object != core.UnattributedObject {
			named++
		}
	}
	if _, ok := lint.Families["noftl_object_io_total"]; !ok || named < 2 {
		return fmt.Errorf("noftl_object_io_total must carry the table and the log: object labels %v", lint.LabelValues("object"))
	}

	if traceOut != "" {
		var trace bytes.Buffer
		n, err := db.Admin().TraceDump(&trace)
		if err != nil {
			return err
		}
		if err := os.WriteFile(traceOut, trace.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Printf("trace written to %s (%d events, %d bytes)\n", traceOut, n, trace.Len())
	}

	fmt.Printf("OK: %d families, %d samples, die labels %d, region labels %v, object labels %v\n",
		len(lint.Families), lint.Samples, len(lint.LabelValues("die")), lint.LabelValues("region"), lint.LabelValues("object"))
	return nil
}

// workload creates a region-resident table and churns it until the tiny
// device needs garbage collection.
func workload(db *noftl.DB) error {
	err := db.Exec(`
		CREATE REGION rgHot (MAX_CHIPS=2);
		CREATE TABLESPACE tsHot (REGION=rgHot);
		CREATE TABLE H (v VARCHAR(900)) TABLESPACE tsHot;
	`)
	if err != nil {
		return err
	}
	tbl, _ := db.Table("H")
	row := bytes.Repeat([]byte{'x'}, 900)
	rows := make([][]byte, 150)
	for i := range rows {
		rows[i] = row
	}
	var rids []noftl.RID
	err = db.Update(func(tx *noftl.Tx) error {
		var err error
		rids, err = tbl.InsertBatch(tx, rows)
		return err
	})
	if err != nil {
		return err
	}
	for round := 0; round < 14; round++ {
		err = db.Update(func(tx *noftl.Tx) error {
			for _, rid := range rids {
				if err := tbl.Update(tx, rid, row); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		if _, err := db.Checkpoint(db.SimulatedTime()); err != nil {
			return err
		}
	}
	return nil
}

func scrape(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", url, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}
