package core

import (
	"fmt"
	"strings"
	"text/tabwriter"
)

// A placement plan divides the dies of a device among groups of database
// objects, one region per group — the procedure behind the paper's Figure 2,
// where the TPC-C objects are divided into 6 regions and the 64 dies are
// distributed "based on sizes of objects and their I/O rate".  NewPlan is the
// one allocator; the groups are the caller's (tpcc.Plan, the paper's).

// usablePerDie is the part of a die a group's footprint may fill before it
// needs another one; the rest is the spare garbage collection lives on.
const usablePerDie = 0.85

// PlacementGroup is one region of a plan.
type PlacementGroup struct {
	// Name is a generated region name (rg0, rg1, …) unless given.
	Name string
	// Objects are the database objects placed in this region.
	Objects []string
	// Dies is the number of dies allocated to the region.
	Dies int
	// IOShare and SizeShare are the group's fraction of the total demand (the
	// die time of the workload) and of the total size (diagnostics for the
	// Figure 2 table).
	IOShare   float64
	SizeShare float64
}

// PlacementPlan is NewPlan's output: one group per region plus the die total
// it was computed for.
type PlacementPlan struct {
	Groups    []PlacementGroup
	TotalDies int
}

// TableString renders the plan in the layout of the paper's Figure 2 (region
// number, objects, number of flash dies) with the shares the dies follow.
func (p PlacementPlan) TableString() string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 0, 0, 2, ' ', 0)
	fmt.Fprintln(w, "Tablespace/Region\tDB-Objects\tI/O share\tSize share\tNum. of Flash dies")
	for i, g := range p.Groups {
		fmt.Fprintf(w, "%d\t%s\t%.1f%%\t%.1f%%\t%d\n",
			i, strings.Join(g.Objects, "; "), 100*g.IOShare, 100*g.SizeShare, g.Dies)
	}
	w.Flush()
	return b.String()
}

// GroupOf returns the group index an object was placed in, or -1.
func (p PlacementPlan) GroupOf(object string) int {
	for i, g := range p.Groups {
		for _, o := range g.Objects {
			if o == object {
				return i
			}
		}
	}
	return -1
}

// NewPlan is the plan of a given grouping, given the groups' footprints in
// pages and their relative demand (I/O rate, in any one unit): the one place
// dies are handed out.  tpcc.Plan calls it on the paper's grouping with
// estimated footprints and the recorded demand; the Figure 2 experiment calls
// it on the same grouping with a run's measured sizes and die time, and on the
// paper's own die counts.
//
// Every group first gets the dies its footprint needs (at least one); a device
// too small for all the floors keeps what it can, shrinking the largest floor
// first (the space manager's spill to the default region absorbs the
// overflow).  The rest are handed out one by one to the group with the highest
// claim: its share — the mean of its share of the demand and of the footprint,
// the paper weighs both — divided by the dies it holds plus a half (Webster's
// divisor method).  A divisor method is monotone where largest remainders are
// not: raising one group's demand raises its claims and lowers everybody
// else's, so it can only gain dies.  With fewer dies than groups nobody gets
// one.
func NewPlan(groups []PlacementGroup, pages []int64, demand []float64, totalDies, pagesPerDie int) PlacementPlan {
	var totalPages, totalDemand float64
	for i := range groups {
		totalPages += float64(pages[i])
		totalDemand += demand[i]
	}
	for i := range groups {
		g := &groups[i]
		if g.Name == "" {
			g.Name = fmt.Sprintf("rg%d", i)
		}
		if totalDemand > 0 {
			g.IOShare = demand[i] / totalDemand
		}
		if totalPages > 0 {
			g.SizeShare = float64(pages[i]) / totalPages
		}
	}
	if totalDies < len(groups) {
		return PlacementPlan{Groups: groups, TotalDies: totalDies}
	}
	usable := max(int64(float64(pagesPerDie)*usablePerDie), 1)
	assigned := 0
	for i := range groups {
		groups[i].Dies = max(int((pages[i]+usable-1)/usable), 1)
		assigned += groups[i].Dies
	}
	// first returns the first group with the highest score.
	first := func(score func(g *PlacementGroup) float64) *PlacementGroup {
		best := &groups[0]
		for i := range groups {
			if score(&groups[i]) > score(best) {
				best = &groups[i]
			}
		}
		return best
	}
	for ; assigned > totalDies; assigned-- {
		first(func(g *PlacementGroup) float64 { return float64(g.Dies) }).Dies--
	}
	for ; assigned < totalDies; assigned++ {
		first(func(g *PlacementGroup) float64 {
			return (0.5*g.IOShare + 0.5*g.SizeShare) / (float64(g.Dies) + 0.5)
		}).Dies++
	}
	return PlacementPlan{Groups: groups, TotalDies: totalDies}
}
