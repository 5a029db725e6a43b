// Package experiments contains the benchmark harness that regenerates every
// table and figure of the paper's evaluation (Figure 2, Figure 3 and the
// headline percentages of the abstract), plus the gated experiments A6, batch
// DML and the chaos campaign (README "Reproducing the paper's results").  The
// functions here are shared by the top-level Go benchmarks (bench_test.go) and
// the cmd/noftl-bench tool.
package experiments

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"noftl"
	"noftl/internal/core"
	"noftl/internal/flash"
	"noftl/internal/metrics"
	"noftl/internal/tpcc"
)

// Scale selects how big an experiment run is.
type Scale int

// Experiment scales.
const (
	// ScaleTiny finishes in well under a second; used by go test.
	ScaleTiny Scale = iota
	// ScaleSmall is the default for `go test -bench` and the CLI: a 16-die
	// device with enough load to exercise garbage collection.
	ScaleSmall
	// ScalePaper approximates the paper's platform: 64 dies behind 8
	// channels and a larger TPC-C database (minutes of wall-clock time).
	ScalePaper
)

func (s Scale) String() string {
	switch s {
	case ScaleTiny:
		return "tiny"
	case ScaleSmall:
		return "small"
	case ScalePaper:
		return "paper"
	default:
		return "unknown"
	}
}

// Setup bundles the database and workload configuration of one experiment
// run.
type Setup struct {
	DB   noftl.Config
	TPCC tpcc.Config
}

// TPCCSetup returns the database and workload configuration for a TPC-C run
// at the given scale.  The device is sized so that the database plus its
// growth during the run reaches high utilization, which is where garbage
// collection — and therefore data placement — matters.
func TPCCSetup(scale Scale) Setup {
	var (
		geo      flash.Geometry
		workload tpcc.Config
		pool     int
	)
	switch scale {
	case ScalePaper:
		geo = flash.Geometry{
			Channels: 8, DiesPerChannel: 8, PlanesPerDie: 2,
			BlocksPerDie: 22, PagesPerBlock: 64, PageSize: 4096,
		}
		// The database grows with every New-Order on a deliberately full device:
		// 40 s is what fits at traditional placement's 5500 TPS (90 s ran out).
		workload = tpcc.Config{
			Warehouses:               8,
			CustomersPerDistrict:     600,
			ItemCount:                5000,
			InitialOrdersPerDistrict: 600,
			Terminals:                32,
			Transactions:             60000,
			Duration:                 40 * time.Second,
			WarmupTransactions:       10000,
			Seed:                     42,
			CheckpointEvery:          500,
		}
		pool = 12288
	case ScaleSmall:
		geo = flash.Geometry{
			Channels: 4, DiesPerChannel: 4, PlanesPerDie: 1,
			BlocksPerDie: 20, PagesPerBlock: 32, PageSize: 4096,
		}
		workload = tpcc.Config{
			Warehouses:               2,
			CustomersPerDistrict:     300,
			ItemCount:                2000,
			InitialOrdersPerDistrict: 300,
			Terminals:                8,
			Transactions:             8000,
			Duration:                 20 * time.Second,
			WarmupTransactions:       1500,
			Seed:                     42,
			// Since the WAL carries full row images, the live log between
			// checkpoints must fit the small metadata region; checkpoint
			// often enough to bound it.
			CheckpointEvery: 400,
		}
		pool = 768
	default: // ScaleTiny
		geo = flash.Geometry{
			Channels: 4, DiesPerChannel: 2, PlanesPerDie: 1,
			BlocksPerDie: 16, PagesPerBlock: 32, PageSize: 4096,
		}
		workload = tpcc.Config{
			Warehouses:               1,
			CustomersPerDistrict:     60,
			ItemCount:                300,
			InitialOrdersPerDistrict: 60,
			Terminals:                4,
			Transactions:             600,
			WarmupTransactions:       100,
			Seed:                     42,
			// Row-image WAL records make the live log the dominant tenant of
			// the tiny default region; checkpoint often to keep it bounded.
			CheckpointEvery: 100,
		}
		pool = 192
	}
	// The paper experiments are single-driver by design: one goroutine
	// multiplexes the logical terminals in virtual time, so a run is a pure
	// function of its seed.  With Workers left at its default (= Terminals)
	// the goroutines' interleaving would decide which placement wins.
	workload.Workers = 1
	dbCfg := noftl.DefaultConfig()
	dbCfg.Flash.Geometry = geo
	dbCfg.BufferPoolPages = pool
	// Light checkpoints, as bench/ and the baseline gate run them until
	// ROADMAP.md item 15; crash recovery is exercised by the chaos experiment.
	dbCfg.DisableSnapshotCheckpoints = true
	// TPC-C terminals take locks in canonical order, so deadlocks cannot
	// form (and a wait that would close one fails at once).  The timeout is
	// a wait budget in virtual time, set far above any legitimate lock wait.
	dbCfg.LockTimeout = 60 * time.Second
	return Setup{DB: dbCfg, TPCC: workload}
}

// openTPCC opens a fresh database for a TPC-C run at the given scale under the
// given placement and returns it with the workload configuration.
func openTPCC(scale Scale, placement tpcc.PlacementKind) (*noftl.DB, tpcc.Config, error) {
	setup := TPCCSetup(scale)
	setup.TPCC.Placement = placement
	if placement == tpcc.PlacementTraditional {
		// The paper's baseline is NoFTL with traditional placement: hints
		// are ignored and every object is striped uniformly over all dies.
		setup.DB.Space.Mode = core.PlacementTraditional
	}
	// Figure 2/3 reproduce the paper's system, whose garbage collection runs
	// in the foreground: the comparison isolates what data placement alone
	// buys when GC interference hits the host.  Background GC (which hides
	// much of that interference for either placement) is evaluated
	// separately in ablation A6.
	setup.DB.Space.DisableBackgroundGC = true
	db, err := noftl.OpenConfig(setup.DB)
	return db, setup.TPCC, err
}

// TPCCRun is one TPC-C run of the comparison: the results Figure 3 prints and
// Figure 2's view of the database the run left.
type TPCCRun struct {
	tpcc.Results
	Figure2 Figure2 `json:"-"`
}

// RunTPCC runs one TPC-C experiment (load + warm-up + measurement) under the
// given placement on a fresh database, takes Figure 2's view of it, then
// checks that the database it measured is consistent (tpcc.Check).
func RunTPCC(scale Scale, placement tpcc.PlacementKind) (TPCCRun, error) {
	db, workload, err := openTPCC(scale, placement)
	if err != nil {
		return TPCCRun{}, err
	}
	defer db.Close()
	res, err := tpcc.LoadAndRun(db, workload)
	if err != nil {
		return TPCCRun{Results: res}, err
	}
	// The view comes first: the check's reads count in the object statistics.
	run := TPCCRun{Results: res, Figure2: newFigure2(db, scale, workload, res.Committed)}
	return run, tpcc.Check(db)
}

// Figure3 holds the two runs of the paper's Figure 3 comparison.
type Figure3 struct {
	Scale       Scale
	Traditional TPCCRun
	Regions     TPCCRun
}

// RunFigure3 executes the Figure 3 experiment: the same TPC-C workload under
// traditional and multi-region placement on identical fresh devices.  The two
// run on goroutines of their own: each is a simulation on a database of its
// own, and what they share is read-only.
func RunFigure3(scale Scale) (Figure3, error) {
	f := Figure3{Scale: scale}
	var (
		wg              sync.WaitGroup
		errTrad, errReg error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		f.Traditional, errTrad = RunTPCC(scale, tpcc.PlacementTraditional)
	}()
	f.Regions, errReg = RunTPCC(scale, tpcc.PlacementRegions)
	wg.Wait()
	if errTrad != nil {
		return Figure3{}, fmt.Errorf("traditional placement run: %w", errTrad)
	}
	if errReg != nil {
		return Figure3{}, fmt.Errorf("region placement run: %w", errReg)
	}
	return f, nil
}

// Table renders the comparison in the layout of the paper's Figure 3.
func (f Figure3) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: Performance comparison of traditional and multi-region data placement (%s scale)\n", f.Scale)
	w := tabwriter.NewWriter(&b, 0, 0, 2, ' ', 0)
	fmt.Fprintln(w, "Metric\tTraditional data placement\tData placement using Regions")
	value := func(name string, tr, rg float64) { fmt.Fprintf(w, "%s\t%.2f\t%.2f\n", name, tr, rg) }
	count := func(name string, tr, rg int64) { fmt.Fprintf(w, "%s\t%d\t%d\n", name, tr, rg) }
	tr, rg := f.Traditional.Results, f.Regions.Results
	value("TPS", tr.TPS, rg.TPS)
	value("READ 4KB (us)", float64(tr.ReadLatency.Mean)/1e3, float64(rg.ReadLatency.Mean)/1e3)
	value("WRITE 4KB (us)", float64(tr.WriteLatency.Mean)/1e3, float64(rg.WriteLatency.Mean)/1e3)
	value("NewOrder TRX (ms)", ms(tr.ResponseTimes[tpcc.TxnNewOrder].Mean), ms(rg.ResponseTimes[tpcc.TxnNewOrder].Mean))
	value("Payment TRX (ms)", ms(tr.ResponseTimes[tpcc.TxnPayment].Mean), ms(rg.ResponseTimes[tpcc.TxnPayment].Mean))
	value("StockLevel TRX (ms)", ms(tr.ResponseTimes[tpcc.TxnStockLevel].Mean), ms(rg.ResponseTimes[tpcc.TxnStockLevel].Mean))
	count("Transactions", tr.Committed, rg.Committed)
	count("Host READ I/Os (4KB)", tr.HostReadIOs, rg.HostReadIOs)
	count("Host WRITE I/Os (4KB)", tr.HostWriteIOs, rg.HostWriteIOs)
	count("GC COPYBACKs", tr.GCCopybacks, rg.GCCopybacks)
	count("GC ERASEs", tr.GCErases, rg.GCErases)
	value("Write amplification", tr.WriteAmp, rg.WriteAmp)
	w.Flush()
	// Where the device time went: a plan is as fast as its busiest die allows.
	for _, res := range []tpcc.Results{tr, rg} {
		fmt.Fprintf(&b, "\nRegions under %s placement:\n", res.Placement)
		w = tabwriter.NewWriter(&b, 0, 0, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintln(w, "Region\tDies\tValid pages\tCapacity\tBusy, mean of dies\tBusiest die\tWrite amp.\t")
		percent := float64(res.SimulatedTime) / 100
		for _, r := range res.Regions {
			var sum, busiest time.Duration
			for _, die := range r.Dies {
				sum += res.DieBusy[die]
				busiest = max(busiest, res.DieBusy[die])
			}
			fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%.1f%%\t%.1f%%\t%.2f\t\n", r.Name, len(r.Dies), r.ValidPages, r.CapacityPages,
				float64(sum)/float64(len(r.Dies))/percent, float64(busiest)/percent, r.WriteAmplification())
		}
		w.Flush()
	}
	return b.String()
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// Headline holds the abstract's headline metrics (experiment E3): the
// relative change from traditional to region placement.
type Headline struct {
	TPSDeltaPct       float64 // paper: ≈ +20 %
	CopybacksDeltaPct float64 // paper: ≈ −20 %
	ErasesDeltaPct    float64 // paper: ≈ −4.3 %
	HostIOsDeltaPct   float64 // paper: ≈ +20 %
	ReadLatDeltaPct   float64
	WriteLatDeltaPct  float64
}

// Headline computes the relative deltas of the Figure 3 run.
func (f Figure3) Headline() Headline {
	tr, rg := f.Traditional, f.Regions
	return Headline{
		TPSDeltaPct:       metrics.PercentDelta(tr.TPS, rg.TPS),
		CopybacksDeltaPct: metrics.PercentDelta(float64(tr.GCCopybacks), float64(rg.GCCopybacks)),
		ErasesDeltaPct:    metrics.PercentDelta(float64(tr.GCErases), float64(rg.GCErases)),
		HostIOsDeltaPct:   metrics.PercentDelta(float64(tr.HostReadIOs+tr.HostWriteIOs), float64(rg.HostReadIOs+rg.HostWriteIOs)),
		ReadLatDeltaPct:   metrics.PercentDelta(float64(tr.ReadLatency.Mean), float64(rg.ReadLatency.Mean)),
		WriteLatDeltaPct:  metrics.PercentDelta(float64(tr.WriteLatency.Mean), float64(rg.WriteLatency.Mean)),
	}
}

// String renders the headline deltas next to the paper's reported values.
func (h Headline) String() string {
	var b strings.Builder
	b.WriteString("Headline metrics (regions vs traditional placement):\n")
	fmt.Fprintf(&b, "  transactional throughput: %+.1f%%   (paper: +21%%)\n", h.TPSDeltaPct)
	fmt.Fprintf(&b, "  GC copybacks:             %+.1f%%   (paper: -19%%)\n", h.CopybacksDeltaPct)
	fmt.Fprintf(&b, "  GC erases:                %+.1f%%   (paper: -4.3%%)\n", h.ErasesDeltaPct)
	fmt.Fprintf(&b, "  host I/Os served:         %+.1f%%   (paper: +20%%)\n", h.HostIOsDeltaPct)
	fmt.Fprintf(&b, "  4KB read latency:         %+.1f%%   (paper: -40%%)\n", h.ReadLatDeltaPct)
	fmt.Fprintf(&b, "  4KB write latency:        %+.1f%%   (paper: -38%%)\n", h.WriteLatDeltaPct)
	return b.String()
}

// Figure2 holds the placement experiment: the per-object device demand a TPC-C
// run measured and the plans the one allocator makes of it.
type Figure2 struct {
	Scale     Scale
	Placement tpcc.PlacementKind
	Objects   []noftl.ObjectCounters
	// Demand is the run's host reads and programs per committed transaction,
	// the form tpcc.RecordedDemand is kept in.
	Demand []tpcc.ObjectDemand
	// Planned is what tpcc.Setup builds before the database exists: the
	// paper's grouping on estimated footprints and the recorded demand.  Host
	// and Measured are the same grouping on this run's sizes and, the one, the
	// die time of Demand — what Planned's I/O shares were in the run that
	// recorded them — the other, that of every command, garbage collection's
	// copybacks included.
	Planned, Host, Measured core.PlacementPlan
}

// MaxDriftPoints is how far a group's share of the host commands' die time
// may move, at the paper scale, from its share of tpcc.RecordedDemand before
// the record has to be taken again (over the ten 4-s rounds of one run no
// share moves more than 2.6 points).
const MaxDriftPoints = 2.0

// newFigure2 reproduces Figure 2 from the database a TPC-C run left (the paper
// profiles under traditional placement): every object's measured device
// demand, and the dies the paper's grouping of the objects gets on that demand.
func newFigure2(db *noftl.DB, scale Scale, workload tpcc.Config, committed int64) Figure2 {
	f := Figure2{Scale: scale, Placement: workload.Placement, Objects: db.ObjectStats()}

	// Sum the measured objects over the paper's groups; what no group lists
	// (the WAL) lives in the default region with group 0.
	listed := core.PlacementPlan{Groups: tpcc.Figure2Groups()}
	pages, dieTime := make([]int64, len(listed.Groups)), make([]float64, len(listed.Groups))
	var unlisted []string
	for _, o := range f.Objects {
		gi := listed.GroupOf(o.Name)
		if gi < 0 {
			gi, unlisted = 0, append(unlisted, o.Name)
		}
		pages[gi] += o.SizePages
		dieTime[gi] += float64(o.DieTime)
		f.Demand = append(f.Demand, tpcc.ObjectDemand{Object: o.Name,
			Reads: float64(o.Reads) / float64(committed), Programs: float64(o.Writes) / float64(committed)})
	}
	geo := db.Geometry()
	plan := func(demand []float64) core.PlacementPlan {
		groups := tpcc.Figure2Groups()
		groups[0].Objects = append(groups[0].Objects, unlisted...)
		return core.NewPlan(groups, pages, demand, geo.Dies(), geo.PagesPerDie())
	}
	f.Planned = tpcc.Plan(workload, geo)
	f.Host, f.Measured = plan(tpcc.GroupDemand(f.Demand, flash.DefaultTiming())), plan(dieTime)
	return f
}

// Drift is the largest distance, in points, between a group's share of the
// recorded demand and its share of this run's.
func (f Figure2) Drift() float64 {
	var worst float64
	for i, g := range f.Planned.Groups {
		worst = max(worst, 100*math.Abs(g.IOShare-f.Host.Groups[i].IOShare))
	}
	return worst
}

// CheckRecord fails when f is the run tpcc.RecordedDemand is taken from — the
// paper scale under traditional placement — and has drifted from it.
func (f Figure2) CheckRecord() error {
	if drift := f.Drift(); f.Scale == ScalePaper && f.Placement == tpcc.PlacementTraditional && drift > MaxDriftPoints {
		return fmt.Errorf("a group's share of the host demand is %.1f points (limit %.1f) off tpcc.RecordedDemand: record the block printed above in internal/tpcc/placement.go",
			drift, MaxDriftPoints)
	}
	return nil
}

// Table renders the measured demand per object, in the device's terms and in
// the form it is recorded in, and the plans in the layout of the paper's
// Figure 2.
func (f Figure2) Table() string {
	var b strings.Builder
	var totalTime float64
	for _, o := range f.Objects {
		totalTime += float64(o.DieTime)
	}
	fmt.Fprintf(&b, "Device demand per object, TPC-C under %s placement (%s scale)\n", f.Placement, f.Scale)
	w := tabwriter.NewWriter(&b, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "Object\tPages\tReads\tWrites\tSuperseding\tCopybacks\tDie ms\tDie time\t")
	for _, o := range f.Objects {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%.0f%%\t%d\t%.1f\t%.1f%%\t\n", o.Name, o.SizePages, o.Reads, o.Writes,
			100*float64(o.Supersedes)/float64(max(o.Writes, 1)), o.Copybacks, ms(o.DieTime), 100*float64(o.DieTime)/max(totalTime, 1))
	}
	w.Flush()
	fmt.Fprintf(&b, "\nHost reads and programs per committed transaction, as internal/tpcc/placement.go records them:\n%s", tpcc.DemandTable(f.Demand))
	fmt.Fprintf(&b, "\nShare of the die time and dies by group of Figure 2 (largest drift from the record: %.1f points):\n", f.Drift())
	fmt.Fprintln(w, "Group\tRecorded\tdies\tThis run's host commands\tdies\tDrift\tWith copybacks\tdies\t")
	for i, g := range f.Planned.Groups {
		h, m := f.Host.Groups[i], f.Measured.Groups[i]
		fmt.Fprintf(w, "%d\t%.1f%%\t%d\t%.1f%%\t%d\t%+.1f\t%.1f%%\t%d\t\n", i, 100*g.IOShare, g.Dies,
			100*h.IOShare, h.Dies, 100*(h.IOShare-g.IOShare), 100*m.IOShare, m.Dies)
	}
	w.Flush()
	fmt.Fprintf(&b, "\nThe paper's groups on estimated footprints and the recorded demand (what tpcc.Setup builds):\n%s", f.Planned.TableString())
	fmt.Fprintf(&b, "\nThe paper's groups on the measured sizes and die time, copybacks included:\n%s", f.Measured.TableString())
	return b.String()
}

// PaperFigure2 is the placement configuration the paper itself used: its
// grouping, with its 2/11/10/29/6/6 of 64 dies as the groups' shares of a
// device of totalDies (no footprint is known).
func PaperFigure2(totalDies int) core.PlacementPlan {
	groups := tpcc.Figure2Groups()
	groups[0].Objects = append([]string{"DBMS-metadata"}, groups[0].Objects...)
	return core.NewPlan(groups, make([]int64, len(groups)), []float64{2, 11, 10, 29, 6, 6}, totalDies, 1)
}

// PaperFigure2Table renders PaperFigure2 for side-by-side comparison.
func PaperFigure2Table(totalDies int) string {
	return fmt.Sprintf("Paper Figure 2 for TPC-C, scaled to %d dies:\n%s", totalDies, PaperFigure2(totalDies).TableString())
}
