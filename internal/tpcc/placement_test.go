package tpcc

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"noftl"
	"noftl/internal/core"
	"noftl/internal/flash"
)

func TestEstimateGroupPages(t *testing.T) {
	cfg := DefaultConfig().withDefaults()
	groups := estimateGroupPages(cfg, 4096)
	if len(groups) != 6 {
		t.Fatalf("got %d groups", len(groups))
	}
	for i, p := range groups {
		if p <= 0 {
			t.Fatalf("group %d has non-positive footprint %d", i, p)
		}
	}
	// ORDERLINE with its index (groups 1 and 3) dominates the TPC-C footprint
	// at every scale.
	for i, p := range groups {
		if i != 1 && i != 3 && p > groups[1] {
			t.Fatalf("group %d (%d pages) larger than ORDERLINE group (%d)", i, p, groups[1])
		}
	}
	// More transactions mean more growth for ORDERLINE and HISTORY.
	bigger := cfg
	bigger.Transactions *= 10
	groups2 := estimateGroupPages(bigger, 4096)
	if groups2[1] <= groups[1] || groups2[0] <= groups[0] {
		t.Fatalf("growth not reflected: %v vs %v", groups2, groups)
	}
	// The footprints are in pages of the device: on 8 KiB pages every group
	// needs fewer of them, the big ones about half.
	for i, p := range estimateGroupPages(cfg, 8192) {
		if p > groups[i] || i == 1 && 10*p > 6*groups[i] {
			t.Errorf("group %d: %d pages of 8 KiB against %d of 4 KiB", i, p, groups[i])
		}
	}
}

func geometry(channels, diesPerChannel, blocks, pagesPerBlock int) flash.Geometry {
	return flash.Geometry{Channels: channels, DiesPerChannel: diesPerChannel, PlanesPerDie: 1,
		BlocksPerDie: blocks, PagesPerBlock: pagesPerBlock, PageSize: 4096}
}

// planCases are the configurations the die plan is exercised on: the three
// experiment scales and the bench workload, which leaves the run length at its
// default.
var planCases = []struct {
	name   string
	cfg    Config
	geo    flash.Geometry
	golden []int // the plan tpcc.Setup builds, which every gated simulated number rests on
}{
	{"tiny", Config{Warehouses: 1, CustomersPerDistrict: 60, ItemCount: 300, Transactions: 600, WarmupTransactions: 100, CheckpointEvery: 100}, geometry(4, 2, 16, 32), []int{2, 1, 1, 2, 1, 1}},
	{"small", Config{Warehouses: 2, CustomersPerDistrict: 300, ItemCount: 2000, Transactions: 8000, WarmupTransactions: 1500, CheckpointEvery: 400}, geometry(4, 4, 20, 32), []int{2, 4, 2, 5, 2, 1}},
	{"paper", Config{Warehouses: 8, CustomersPerDistrict: 600, ItemCount: 5000, Transactions: 60000, WarmupTransactions: 10000, CheckpointEvery: 500}, geometry(8, 8, 22, 64), []int{10, 13, 8, 23, 8, 2}},
	{"bench", Config{Warehouses: 8, CustomersPerDistrict: 600, ItemCount: 5000, CheckpointEvery: 500}, geometry(8, 8, 22, 64), []int{10, 11, 10, 24, 7, 2}},
	{"default", DefaultConfig(), geometry(3, 2, 64, 32), []int{1, 1, 1, 1, 1, 1}},
}

func diesOf(plan core.PlacementPlan) []int {
	var dies []int
	for _, g := range plan.Groups {
		if g.Dies > 0 {
			dies = append(dies, g.Dies)
		}
	}
	return dies
}

// TestPlanRegionDiesGolden pins the die vectors of planCases: a change of the
// allocator or of its inputs that moves one of them moves Figure 3 and the
// tpcc-regions benchmark, and has to say so.  They moved with PR 22 (tiny
// 1/2/1/2/1/1, small 2/4/2/6/1/1, paper 7/18/6/23/5/5, bench 7/16/8/22/5/6
// before): the demand is RecordedDemand, measured, instead of 47 hand-counted
// logical accesses — rgLookup, which lives in the buffer pool, gives up three
// or four of 64 dies, rgOrders and the log gain them — and the footprints are
// what storage and btree pack, in pages of the device (TestEstimateMatchesLoad).
func TestPlanRegionDiesGolden(t *testing.T) {
	for _, tc := range planCases {
		if got := diesOf(Plan(tc.cfg, tc.geo)); !reflect.DeepEqual(got, tc.golden) {
			t.Errorf("%s: plan %v, golden %v", tc.name, got, tc.golden)
		}
	}
}

// TestPlanRegionDiesProperties checks what every plan of the allocator must
// satisfy, on the footprints of planCases and the recorded demand with one
// group's varied: all dies are handed out, no group is left without one or
// below the dies its footprint needs, and a group whose demand alone rises never
// loses a die (the largest-remainder plan this replaces took one from the log's
// group at 16 dies when its weight went from 0.5 to 6).
func TestPlanRegionDiesProperties(t *testing.T) {
	base := GroupDemand(RecordedDemand, flash.DefaultTiming())
	var total float64
	for _, d := range base {
		total += d
	}
	for _, tc := range planCases {
		groups := estimateGroupPages(tc.cfg, tc.geo.PageSize)
		usable := int64(float64(tc.geo.PagesPerDie()) * 0.85)
		for g := range groups {
			demand := append([]float64(nil), base...)
			prev := 0
			for _, pct := range []float64{0, 1, 2, 4, 8, 12, 20, 30, 50, 100, 200, 2000} {
				demand[g] = total * pct / 100
				dies := diesOf(core.NewPlan(make([]core.PlacementGroup, len(groups)), groups, demand, tc.geo.Dies(), tc.geo.PagesPerDie()))
				if len(dies) != len(groups) {
					t.Fatalf("%s: plan has %d groups", tc.name, len(dies))
				}
				sum := 0
				for i, d := range dies {
					sum += d
					if floor := (groups[i] + usable - 1) / usable; d < 1 || int64(d) < floor {
						t.Errorf("%s, demand[%d]=%v%%: group %d has %d dies for %d pages (%v)", tc.name, g, pct, i, d, groups[i], dies)
					}
				}
				if sum != tc.geo.Dies() {
					t.Errorf("%s, demand[%d]=%v%%: plan %v distributes %d of %d dies", tc.name, g, pct, dies, sum, tc.geo.Dies())
				}
				if dies[g] < prev {
					t.Errorf("%s: raising demand[%d] to %v%% lowered its dies from %d to %d", tc.name, g, pct, prev, dies[g])
				}
				prev = dies[g]
			}
		}
	}
}

// TestPlanRegionDies holds the plans of planCases to the bottleneck law
// (throughput ≤ 1 / the busiest die's demand per transaction) and clear of the
// hazards measured on tpcc-regions, seed 42, in sim_ops_per_s by dies of
// log / ORDERLINE / CUSTOMER / rgStock / rgOrders / rgLookup (7/16/8/22/5/6, the
// hand-weighted plan: 3559).
func TestPlanRegionDies(t *testing.T) {
	if diesOf(Plan(DefaultConfig(), geometry(2, 2, 64, 32))) != nil {
		t.Fatal("plan produced for a 4-die device")
	}
	demand := GroupDemand(RecordedDemand, flash.DefaultTiming())
	var total float64
	for _, d := range demand {
		total += d
	}
	for _, tc := range planCases {
		pages, dies := estimateGroupPages(tc.cfg, tc.geo.PageSize), diesOf(Plan(tc.cfg, tc.geo))
		usable := int64(float64(tc.geo.PagesPerDie()) * 0.85)
		logical := 0.88 * float64(tc.geo.PagesPerDie()) // what a die holds beside its over-provisioned spare
		for i, d := range dies {
			// The allocator weighs demand and footprint half and half, so a group
			// of no size gets half the dies its demand alone would: no group that
			// got a die beyond its footprint's carries more than twice the mean
			// demand per die (and a half die of rounding).
			if floor := (pages[i] + usable - 1) / usable; int64(d) > floor && demand[i]/(float64(d)+0.5) > 2*total/float64(tc.geo.Dies()) {
				t.Errorf("%s: group %d carries %.1f%% of the demand on %d of %d dies (%v)", tc.name, i, 100*demand[i]/total, d, tc.geo.Dies(), dies)
			}
			// A group whose writes supersede needs spare to collect in: CUSTOMER
			// on the 5 dies its footprint needs at the bench scale, 86 % of their
			// logical capacity, ran at 1351 and 1357 (8/19/5/21/9/2, 9/18/5/20/10/2)
			// and at 1216 (3/23/5/24/7/2).
			if i >= 2 && i <= 4 && float64(pages[i]) > 0.75*logical*float64(d) {
				t.Errorf("%s: group %d fills %d dies to %.0f%% (%v)", tc.name, i, d, 100*float64(pages[i])/logical/float64(d), dies)
			}
		}
		if tc.geo.Dies() != 64 {
			continue
		}
		// ORDERLINE grows with every New-Order until its region is full and
		// then spills into the default region, where it collides with the log:
		// with rgOrders on 7 or 8 dies the run follows the dies the two hold
		// together — 18: 3222 (6/12/10/22/12/2), 19: 3664 (5/14/9/24/10/2), 20:
		// 3898 (5/15/11/23/7/3), 21: 4051 and 4102 (10/11/10/24/7/2,
		// 5/16/10/23/7/3), 22: 4178 and 4247, 23: 4264 and 4424 (10/13/10/22/7/2,
		// 10/13/8/23/8/2), 24: 4419 and 4447 (6/18/8/22/8/2, 8/16/8/22/8/2).
		if dies[2] < 6 || dies[0]+dies[1] < 21 || dies[4] < 7 {
			t.Errorf("%s: plan %v", tc.name, dies)
		}
	}
}

// TestEstimateMatchesLoad loads the tiny and the small database and holds the
// footprint estimate of every group to 10 % of what Load leaves behind (the
// fill factors this replaces put the heaps 12 % over and the index groups
// 14-16 % under).
func TestEstimateMatchesLoad(t *testing.T) {
	for _, tc := range planCases[:2] {
		dbCfg := noftl.DefaultConfig()
		dbCfg.Flash.Geometry = tc.geo
		db, err := noftl.OpenConfig(dbCfg)
		if err != nil {
			t.Fatal(err)
		}
		sch, err := Setup(db, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := Load(db, sch, tc.cfg); err != nil {
			t.Fatal(err)
		}
		// One transaction is no growth; the log's allowance is not a loaded page.
		cfg := tc.cfg.withDefaults()
		cfg.Transactions, cfg.WarmupTransactions = 1, 0
		estimated := estimateGroupPages(cfg, tc.geo.PageSize)
		estimated[0] -= walLivePages(cfg, tc.geo.PageSize)
		loaded := make([]int64, len(estimated))
		plan := core.PlacementPlan{Groups: Figure2Groups()}
		for _, o := range db.ObjectStats() {
			if g := plan.GroupOf(o.Name); g >= 0 {
				loaded[g] += o.SizePages
			}
		}
		for g := range loaded {
			if diff := estimated[g] - loaded[g]; 10*max(diff, -diff) > loaded[g] {
				t.Errorf("%s: group %d estimated at %d pages, loaded %d (%v / %v)", tc.name, g, estimated[g], loaded[g], estimated, loaded)
			}
		}
		db.Close()
	}
}

// TestRecordedDemandIsThePrintedForm: the table in placement.go is, byte for
// byte, what noftl-bench -experiment figure2 prints for a run that measures it.
func TestRecordedDemandIsThePrintedForm(t *testing.T) {
	src, err := os.ReadFile("placement.go")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), DemandTable(RecordedDemand)) {
		t.Errorf("placement.go does not hold RecordedDemand in the form DemandTable prints:\n%s", DemandTable(RecordedDemand))
	}
}

func TestFigure2GroupsCoverEveryObject(t *testing.T) {
	groups := Figure2Groups()
	if len(groups) != 6 {
		t.Fatalf("expected 6 groups, got %d", len(groups))
	}
	seen := map[string]int{}
	for _, g := range groups {
		for _, o := range g.Objects {
			seen[o]++
		}
	}
	all := []string{
		TableWarehouse, TableDistrict, TableCustomer, TableHistory, TableNewOrder,
		TableOrder, TableOrderLine, TableItem, TableStock,
		IndexWarehouse, IndexDistrict, IndexCustomer, IndexCustName, IndexItem,
		IndexStock, IndexNewOrder, IndexOrder, IndexOrderCust, IndexOrderLine,
	}
	for _, name := range all {
		if seen[name] != 1 {
			t.Errorf("object %s appears %d times in the Figure 2 grouping", name, seen[name])
		}
	}
}
