package core

import "testing"

// TestNewPlanFloorsAndShares pins the allocator's contract beyond the
// properties internal/tpcc checks on the TPC-C footprints: footprint floors
// first, the largest floor shrunk when they do not fit, the rest by demand, and
// no dies at all for more groups than dies; and GroupOf, which finds an
// object's group.
func TestNewPlanFloorsAndShares(t *testing.T) {
	dies := func(pages []int64, demand []float64, total, perDie int) []int {
		var out []int
		for _, g := range NewPlan(make([]PlacementGroup, len(pages)), pages, demand, total, perDie).Groups {
			out = append(out, g.Dies)
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		pages  []int64
		demand []float64
		total  int
		want   []int
	}{
		{"floors of 85 usable pages per die, the rest by demand and footprint", []int64{170, 85, 1}, []float64{0, 0, 1}, 8, []int{3, 1, 4}},
		{"floors of 10, 5 and 1 do not fit: the largest shrinks first", []int64{850, 425, 1}, []float64{1, 1, 1}, 8, []int{3, 4, 1}},
		{"no demand and no footprint: the first group takes the rest", []int64{0, 0}, []float64{0, 0}, 5, []int{4, 1}},
		{"the paper's counts are exact quotas at 64", make([]int64, 6), []float64{2, 11, 10, 29, 6, 6}, 64, []int{2, 11, 10, 29, 6, 6}},
		{"fewer dies than groups", []int64{1, 1, 1}, []float64{1, 1, 1}, 2, []int{0, 0, 0}},
		{"one group takes every die", []int64{10}, []float64{1}, 8, []int{8}},
	} {
		got := dies(tc.pages, tc.demand, tc.total, 100)
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Errorf("%s: %v, want %v", tc.name, got, tc.want)
				break
			}
		}
	}
	plan := NewPlan([]PlacementGroup{{Objects: []string{"A", "B"}}, {Objects: []string{"C"}}}, []int64{1, 1}, []float64{1, 1}, 4, 100)
	if plan.GroupOf("B") != 0 || plan.GroupOf("C") != 1 || plan.GroupOf("nope") != -1 || plan.Groups[1].Name != "rg1" {
		t.Errorf("GroupOf or the generated names: %+v", plan.Groups)
	}
}
