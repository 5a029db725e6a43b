package experiments

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"noftl/internal/tpcc"
)

func TestTPCCSetupScales(t *testing.T) {
	for _, sc := range []Scale{ScaleTiny, ScaleSmall, ScalePaper} {
		s := TPCCSetup(sc)
		if err := s.DB.Flash.Geometry.Validate(); err != nil {
			t.Fatalf("%s: invalid geometry: %v", sc, err)
		}
		if s.TPCC.Transactions <= 0 || s.TPCC.Terminals <= 0 {
			t.Fatalf("%s: empty workload", sc)
		}
		if sc.String() == "" {
			t.Fatal("empty scale name")
		}
	}
	if TPCCSetup(ScalePaper).DB.Flash.Geometry.Dies() != 64 {
		t.Fatal("paper scale must have 64 dies")
	}
	if Scale(99).String() != "unknown" {
		t.Fatal("unknown scale name")
	}
}

// viewsAgree checks what Figure 2 and Figure 3 share of a run: Figure 2's
// objects sum to Figure 3's host reads, host writes and copybacks (the view is
// taken before tpcc.Check, whose reads would count).
func viewsAgree(t *testing.T, run TPCCRun) {
	t.Helper()
	var reads, writes, copybacks int64
	for _, o := range run.Figure2.Objects {
		reads, writes, copybacks = reads+o.Reads, writes+o.Writes, copybacks+o.Copybacks
	}
	if reads != run.HostReadIOs || writes != run.HostWriteIOs || copybacks != run.GCCopybacks {
		t.Errorf("%s placement: Figure 2's objects sum to %d reads, %d writes, %d copybacks; Figure 3 has %d, %d, %d",
			run.Placement, reads, writes, copybacks, run.HostReadIOs, run.HostWriteIOs, run.GCCopybacks)
	}
}

func TestRunFigure2Tiny(t *testing.T) {
	f3, err := RunFigure3(ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	f2 := f3.Traditional.Figure2
	if len(f2.Objects) < 10 {
		t.Fatalf("only %d objects have statistics", len(f2.Objects))
	}
	if len(f2.Planned.Groups) != 6 {
		t.Fatalf("plan has %d groups", len(f2.Planned.Groups))
	}
	total := 0
	for _, g := range f2.Planned.Groups {
		total += g.Dies
	}
	if total != TPCCSetup(ScaleTiny).DB.Flash.Geometry.Dies() {
		t.Fatalf("plan distributes %d dies", total)
	}
	tbl := f2.Table()
	for _, want := range []string{tpcc.TableStock, tpcc.TableOrderLine, tpcc.TableCustomer, "Superseding", "what tpcc.Setup builds",
		tpcc.DemandTable(f2.Demand), "largest drift from the record"} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("Figure 2 table missing %s:\n%s", want, tbl)
		}
	}
	if !strings.Contains(PaperFigure2Table(64), "OL_IDX; STOCK") {
		t.Fatal("paper reference table wrong")
	}
	// The record is the paper scale's: a tiny run is never held to it, the
	// paper-scale profile is once a group's share has moved.
	if err := f2.CheckRecord(); err != nil {
		t.Errorf("tiny run checked against the record: %v", err)
	}
	f2.Scale = ScalePaper
	if f2.Drift() <= MaxDriftPoints || f2.CheckRecord() == nil {
		t.Errorf("the tiny profile passes for the recorded one: drift %.1f points, %v", f2.Drift(), f2.CheckRecord())
	}
}

// TestPaperFigure2 checks the paper's configuration scaled to other devices:
// literal at 64 dies, every die handed out and no group without one from 6
// dies up (the truncating scale-down this replaces gave out 14 of 16).
func TestPaperFigure2(t *testing.T) {
	for n := 6; n <= 64; n++ {
		var dies []int
		sum := 0
		for _, g := range PaperFigure2(n).Groups {
			dies = append(dies, g.Dies)
			sum += g.Dies
			if g.Dies < 1 {
				t.Fatalf("%d dies: a group without a die", n)
			}
		}
		if sum != n || n == 64 && !reflect.DeepEqual(dies, []int{2, 11, 10, 29, 6, 6}) {
			t.Fatalf("%d dies: %v hands out %d", n, dies, sum)
		}
	}
}

// TestFigure2Small runs the Figure 2 procedure at the small scale and checks
// the per-object record against what TPC-C does to its tables: HISTORY is only
// appended to, so under half of its page writes supersede a page; the log costs
// die time; the dies are handed out by the one allocator; and the objects sum
// to the run's Figure 3 I/O counts.
func TestFigure2Small(t *testing.T) {
	run, err := RunTPCC(ScaleSmall, tpcc.PlacementTraditional)
	if err != nil {
		t.Fatal(err)
	}
	viewsAgree(t, run)
	f2 := run.Figure2
	plan := f2.Measured
	size := map[string]int64{}
	for _, o := range f2.Objects {
		size[o.Name] = o.SizePages
		if o.Name == "WAL" && (o.DieTime <= 0 || o.Writes == 0) {
			t.Errorf("the WAL costs no die time: %+v", o)
		}
		if o.Name == tpcc.TableHistory && 2*o.Supersedes >= o.Writes {
			t.Errorf("HISTORY supersedes %d of its %d page writes", o.Supersedes, o.Writes)
		}
	}
	// On the measured sizes every group gets the dies its footprint needs; the
	// device is deliberately full, so when the floors do not all fit, dies go to
	// floors only.
	geo := TPCCSetup(ScaleSmall).DB.Flash.Geometry
	usable := int64(float64(geo.PagesPerDie()) * 0.85)
	floors, sumFloors, sumDies := make([]int, len(plan.Groups)), 0, 0
	for i, g := range plan.Groups {
		var pages int64
		for _, o := range g.Objects {
			pages += size[o]
		}
		floors[i] = max(int((pages+usable-1)/usable), 1)
		sumFloors += floors[i]
		sumDies += g.Dies
	}
	if sumDies != geo.Dies() {
		t.Errorf("plan hands out %d of %d dies:\n%s", sumDies, geo.Dies(), plan.TableString())
	}
	for i, g := range plan.Groups {
		if g.Dies < 1 || sumFloors <= sumDies && g.Dies < floors[i] || sumFloors > sumDies && g.Dies > floors[i] {
			t.Errorf("group %d has %d dies, its footprint needs %d (all floors: %d of %d dies):\n%s",
				i, g.Dies, floors[i], sumFloors, sumDies, plan.TableString())
		}
	}
	// The same allocator on the paper's grouping: the planned plan is the one
	// tpcc.Setup builds (the golden vector of internal/tpcc), the measured
	// ones charge the log to group 0, and the host commands' shares — the
	// recorded quantity — sum to the whole.
	var planned []int
	var hostShares float64
	for i, g := range f2.Planned.Groups {
		planned = append(planned, g.Dies)
		hostShares += f2.Host.Groups[i].IOShare
	}
	if !reflect.DeepEqual(planned, []int{2, 4, 2, 5, 2, 1}) || f2.Measured.GroupOf("WAL") != 0 || f2.Measured.Groups[0].IOShare < 0.1 ||
		f2.Host.GroupOf("WAL") != 0 || math.Abs(hostShares-1) > 1e-9 {
		t.Errorf("planned dies %v; host shares sum to %v; measured plan:\n%s", planned, hostShares, f2.Measured.TableString())
	}
}

func TestRunFigure3Tiny(t *testing.T) {
	f3, err := RunFigure3(ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	if f3.Traditional.Committed == 0 || f3.Regions.Committed == 0 {
		t.Fatal("runs committed nothing")
	}
	if f3.Traditional.Failed != 0 || f3.Regions.Failed != 0 {
		t.Fatalf("failed transactions: %d / %d", f3.Traditional.Failed, f3.Regions.Failed)
	}
	viewsAgree(t, f3.Traditional)
	viewsAgree(t, f3.Regions)
	tbl := f3.Table()
	for _, want := range []string{"TPS", "GC COPYBACKs", "GC ERASEs", "Host READ I/Os", "NewOrder TRX", "Busiest die", "rgOrders", "rgLookup"} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("Figure 3 table missing %q:\n%s", want, tbl)
		}
	}
	h := f3.Headline()
	if h.String() == "" {
		t.Fatal("empty headline")
	}
	// At tiny scale GC may barely trigger, so only sanity-check that the
	// metrics were measured at all.
	if f3.Traditional.HostWriteIOs == 0 || f3.Regions.HostWriteIOs == 0 {
		t.Fatal("no host writes measured")
	}
	if f3.Traditional.ReadLatency.Count == 0 {
		t.Fatal("no read latencies measured")
	}
	// The per-region rows rest on one busy time per die, none above the run.
	if len(f3.Regions.DieBusy) != TPCCSetup(ScaleTiny).DB.Flash.Geometry.Dies() {
		t.Fatalf("%d dies reported busy times", len(f3.Regions.DieBusy))
	}
	for die, busy := range f3.Regions.DieBusy {
		if busy <= 0 || busy > f3.Regions.SimulatedTime {
			t.Errorf("die %d busy %v of %v", die, busy, f3.Regions.SimulatedTime)
		}
	}
}

// TestFigure3ShapeSmall pins what the reproduction holds at the small scale
// (16 dies).  The GC half of the paper's result reproduces: multi-region
// placement does at most 0.8x the copybacks (0.78x) at a lower write
// amplification (1.81 vs 1.99).  The throughput half does not yet: regions are
// 3.8 % behind (915.63 vs 951.97 TPS), and the test bounds the gap at that plus
// 3 points.  The gap was 8.5 % (898.06 vs 981.60) while every NewOrder rollback
// burnt an O_ID, for Stock-Level then read holes where it now reads orders, and
// 21.1 % (774.42 TPS) on the plan of the hand-entered I/O weights,
// 2/4/2/6/1/1; the recorded demand moves a die from rgStock to rgOrders, which
// was a single die 64 % busy.  The earlier bound of
// 3 % (545.15 vs 551.05 TPS) only held while the dies queued in submission
// order: the 32 terminals then advanced in lock-step at the pace of the most
// delayed one, which hid the placements' difference along with everything else
// — every transaction type cost the same (Payment 13.0 ms, Stock-Level
// 20.7 ms).  With the dies serving in arrival order both placements must run at
// least 30 % above those figures and a Payment, which touches four rows, must
// cost at most a quarter of a Stock-Level, which reads 200 order lines (3.4 vs
// 32.4 ms and 3.6 vs 30.1 ms): that assertion tells the two models apart.  The
// paper experiments are single-driver by design (TPCCSetup pins Workers to 1),
// so both runs are deterministic for the seed.  It is the slowest test in the
// repository and is skipped with -short.
func TestFigure3ShapeSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping small-scale Figure 3 shape test in -short mode")
	}
	f3, err := RunFigure3(ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s\n%s", f3.Table(), f3.Headline().String())
	if f3.Traditional.Failed != 0 || f3.Regions.Failed != 0 {
		t.Fatalf("failed transactions: %d / %d", f3.Traditional.Failed, f3.Regions.Failed)
	}
	if f3.Traditional.GCCopybacks == 0 {
		t.Fatal("traditional run triggered no GC copybacks; device sizing is off")
	}
	if float64(f3.Regions.GCCopybacks) > 0.8*float64(f3.Traditional.GCCopybacks) {
		t.Errorf("regions placement should do at most 0.8x the GC copybacks: %d vs %d",
			f3.Regions.GCCopybacks, f3.Traditional.GCCopybacks)
	}
	if f3.Regions.WriteAmp >= f3.Traditional.WriteAmp {
		t.Errorf("regions placement should reduce write amplification: %.2f vs %.2f",
			f3.Regions.WriteAmp, f3.Traditional.WriteAmp)
	}
	const measuredGap = 0.038
	if f3.Regions.TPS < (1-measuredGap-0.03)*f3.Traditional.TPS {
		t.Errorf("regions placement fell more than %.1f%% behind: %.2f vs %.2f TPS",
			100*(measuredGap+0.03), f3.Regions.TPS, f3.Traditional.TPS)
	}
	const lockStepRegions, lockStepTraditional = 545.15, 551.05
	if f3.Regions.TPS < 1.30*lockStepRegions || f3.Traditional.TPS < 1.30*lockStepTraditional {
		t.Errorf("dies serving in arrival order should keep both placements 30%% above %.2f / %.2f TPS: %.2f / %.2f",
			lockStepRegions, lockStepTraditional, f3.Regions.TPS, f3.Traditional.TPS)
	}
	for _, run := range []struct {
		name string
		res  TPCCRun
	}{{"traditional", f3.Traditional}, {"regions", f3.Regions}} {
		payment, stockLevel := run.res.ResponseTimes[tpcc.TxnPayment].Mean, run.res.ResponseTimes[tpcc.TxnStockLevel].Mean
		if payment > stockLevel/4 {
			t.Errorf("%s: Payment costs %v, more than a quarter of Stock-Level's %v: the terminals are in lock-step again",
				run.name, payment, stockLevel)
		}
	}
}

// TestBothPlacementsAtOnceIsSequential: Figure 3 runs its two placements on
// two goroutines, and what it and Figure 2's views of its runs print is byte
// for byte what the runs print one after the other (under -race it also shows
// the two simulations share nothing they write).
func TestBothPlacementsAtOnceIsSequential(t *testing.T) {
	f3, err := RunFigure3(ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	trad, err := RunTPCC(ScaleTiny, tpcc.PlacementTraditional)
	if err != nil {
		t.Fatal(err)
	}
	regions, err := RunTPCC(ScaleTiny, tpcc.PlacementRegions)
	if err != nil {
		t.Fatal(err)
	}
	seq := Figure3{Scale: ScaleTiny, Traditional: trad, Regions: regions}
	if got, want := f3.Table()+f3.Headline().String(), seq.Table()+seq.Headline().String(); got != want {
		t.Errorf("Figure 3 at once:\n%s\none after the other:\n%s", got, want)
	}
	for _, p := range [][2]TPCCRun{{f3.Traditional, trad}, {f3.Regions, regions}} {
		if got, want := p[0].Figure2.Table(), p[1].Figure2.Table(); got != want {
			t.Errorf("Figure 2 under %s placement at once:\n%s\nalone:\n%s", p[1].Placement, got, want)
		}
	}
}
