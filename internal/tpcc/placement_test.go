package tpcc

import (
	"reflect"
	"testing"

	"noftl/internal/core"
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
	// ORDERLINE (group 1) must be the largest heap group — it dominates the
	// TPC-C footprint at every scale.
	for i, p := range groups {
		if i != 1 && p > groups[1] {
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
}

// planCases are the configurations the die plan is exercised on: the three
// experiment scales and the bench workload, which leaves the run length at its
// default.
var planCases = []struct {
	name        string
	cfg         Config
	dies        int
	pagesPerDie int
	golden      []int // the plan tpcc.Setup builds, which every gated simulated number rests on
}{
	{"tiny", Config{Warehouses: 1, CustomersPerDistrict: 60, ItemCount: 300, Transactions: 600, WarmupTransactions: 100, CheckpointEvery: 100}, 8, 16 * 32, []int{1, 2, 1, 2, 1, 1}},
	{"small", Config{Warehouses: 2, CustomersPerDistrict: 300, ItemCount: 2000, Transactions: 8000, WarmupTransactions: 1500, CheckpointEvery: 400}, 16, 20 * 32, []int{2, 4, 2, 6, 1, 1}},
	{"paper", Config{Warehouses: 8, CustomersPerDistrict: 600, ItemCount: 5000, Transactions: 60000, WarmupTransactions: 10000, CheckpointEvery: 500}, 64, 22 * 64, []int{7, 18, 6, 23, 5, 5}},
	{"bench", Config{Warehouses: 8, CustomersPerDistrict: 600, ItemCount: 5000, CheckpointEvery: 500}, 64, 22 * 64, []int{7, 16, 8, 22, 5, 6}},
	{"default", DefaultConfig(), 6, 2048, []int{1, 1, 1, 1, 1, 1}},
}

// planRegionDies returns the die counts of Plan, nil when it hands out none.
func planRegionDies(cfg Config, totalDies, pagesPerDie int) []int {
	return diesOf(Plan(cfg, totalDies, pagesPerDie))
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
// tpcc-regions benchmark, and has to say so.
func TestPlanRegionDiesGolden(t *testing.T) {
	for _, tc := range planCases {
		if got := planRegionDies(tc.cfg, tc.dies, tc.pagesPerDie); !reflect.DeepEqual(got, tc.golden) {
			t.Errorf("%s: plan %v, golden %v", tc.name, got, tc.golden)
		}
	}
}

// TestPlanRegionDiesProperties checks what every plan of the allocator must
// satisfy, on the footprints of planCases and I/O weights passed in: all dies
// are handed out, no group is left without one or below the dies its footprint
// needs, and a group whose I/O weight alone rises never loses a die (the
// largest-remainder plan this replaces took one from the log's group at 16
// dies when its weight went from 0.5 to 6).
func TestPlanRegionDiesProperties(t *testing.T) {
	for _, tc := range planCases {
		groups, base := estimateGroupPages(tc.cfg, 4096), groupIOWeights
		usable := int64(float64(tc.pagesPerDie) * 0.85)
		for g := range groups {
			weights := append([]float64(nil), base...)
			prev := 0
			for _, w := range []float64{0, 0.5, 1, 2, 4, 6, 10, 15, 25, 50, 100, 1000} {
				weights[g] = w
				dies := diesOf(core.NewPlan(make([]core.PlacementGroup, len(groups)), groups, weights, tc.dies, tc.pagesPerDie))
				if len(dies) != len(groups) {
					t.Fatalf("%s: plan has %d groups", tc.name, len(dies))
				}
				sum := 0
				for i, d := range dies {
					sum += d
					if floor := (groups[i] + usable - 1) / usable; d < 1 || int64(d) < floor {
						t.Errorf("%s, weight[%d]=%v: group %d has %d dies for %d pages (%v)", tc.name, g, w, i, d, groups[i], dies)
					}
				}
				if sum != tc.dies {
					t.Errorf("%s, weight[%d]=%v: plan %v distributes %d of %d dies", tc.name, g, w, dies, sum, tc.dies)
				}
				if dies[g] < prev {
					t.Errorf("%s: raising weight[%d] to %v lowered its dies from %d to %d", tc.name, g, w, prev, dies[g])
				}
				prev = dies[g]
			}
		}
	}
}

func TestPlanRegionDies(t *testing.T) {
	cfg := DefaultConfig().withDefaults()
	// Too few dies for six groups.
	if planRegionDies(cfg, 4, 512) != nil {
		t.Fatal("plan produced for a 4-die device")
	}
	// With plenty of dies and capacity, the hottest group (OL_IDX + STOCK)
	// gets the largest share, mirroring the paper's Figure 2 where it holds
	// 29 of 64 dies.
	dies := planRegionDies(cfg, 64, 4096)
	largest := 0
	for i, d := range dies {
		if d > dies[largest] {
			largest = i
		}
	}
	if largest != 3 && largest != 1 {
		t.Fatalf("largest region is group %d (%v), expected the STOCK/OL_IDX or ORDERLINE group", largest, dies)
	}
	// The log's group sits on the plateau its weight was measured on: 5 to 10
	// of 64 dies at the paper's scale, and the two its footprint needs at 16.
	for _, tc := range planCases {
		g0 := planRegionDies(tc.cfg, tc.dies, tc.pagesPerDie)[0]
		if tc.dies == 64 && (g0 < 5 || g0 > 10) || tc.name == "small" && g0 != 2 {
			t.Errorf("%s: the log's group has %d of %d dies", tc.name, g0, tc.dies)
		}
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
