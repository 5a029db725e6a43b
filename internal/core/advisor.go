package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"text/tabwriter"
)

// The Region Advisor derives a multi-region data placement configuration
// from observed per-object device demand — the procedure behind the paper's
// Figure 2, where the TPC-C objects are divided into 6 regions and the 64
// dies are distributed "based on sizes of objects and their I/O rate".
//
// The advisor
//  1. classifies every object by its access profile (append-only,
//     write-hot, mixed, read-mostly, cold),
//  2. groups objects with similar profiles, giving very I/O-intensive
//     objects a region of their own,
//  3. hands the groups' footprints and die time to NewPlan.
//
// An object's I/O rate is the die time its commands cost (ObjectCounters):
// one unit for reads, writes and the copybacks garbage collection spends on
// its pages.

// AdvisorOptions tune the grouping.
type AdvisorOptions struct {
	// MaxRegions is the maximum number of regions to produce (including the
	// metadata/append region).  Default 6, as in the paper's Figure 2.
	MaxRegions int
}

const (
	// dedicatedShare is the share of the total die time above which an object
	// gets a region of its own.
	dedicatedShare = 0.15
	// appendOnlySupersedes is the share of superseding writes below which an
	// object is append-only: TPC-C's HISTORY rewrites a quarter of its pages
	// (the tail page, evicted before it is full), every updated table more
	// than four fifths.
	appendOnlySupersedes = 0.5
	// usablePerDie is the part of a die a group's footprint may fill before
	// it needs another one; the rest is the spare garbage collection lives on.
	usablePerDie = 0.85
)

// AccessProfile classifies an object's I/O behaviour.
type AccessProfile string

// Access profiles assigned by the advisor.
const (
	ProfileMetadata   AccessProfile = "metadata"    // catalog, logs, tiny system objects
	ProfileAppendOnly AccessProfile = "append-only" // insert-only growth (e.g. HISTORY)
	ProfileWriteHot   AccessProfile = "write-hot"   // high write share of a high I/O rate
	ProfileMixed      AccessProfile = "mixed"       // reads and writes both significant
	ProfileReadMostly AccessProfile = "read-mostly" // almost exclusively read
	ProfileCold       AccessProfile = "cold"        // negligible I/O
)

// PlacementGroup is one region proposed by the advisor.
type PlacementGroup struct {
	// Name is a generated region name (rg0, rg1, …) unless given.
	Name string
	// Objects are the database objects placed in this region.
	Objects []string
	// Profile is the dominant access profile of the group.
	Profile AccessProfile
	// Dies is the number of dies allocated to the region.
	Dies int
	// IOShare and SizeShare are the group's fraction of the total demand (the
	// die time of the workload) and of the total size (diagnostics for the
	// Figure 2 table).
	IOShare   float64
	SizeShare float64
}

// PlacementPlan is the advisor's output: one group per region plus the die
// total it was computed for.
type PlacementPlan struct {
	Groups    []PlacementGroup
	TotalDies int
}

// TableString renders the plan in the layout of the paper's Figure 2 (region
// number, objects, number of flash dies) with the shares the dies follow.
func (p PlacementPlan) TableString() string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 0, 0, 2, ' ', 0)
	fmt.Fprintln(w, "Tablespace/Region\tDB-Objects\tProfile\tI/O share\tSize share\tNum. of Flash dies")
	for i, g := range p.Groups {
		fmt.Fprintf(w, "%d\t%s\t%s\t%.1f%%\t%.1f%%\t%d\n",
			i, strings.Join(g.Objects, "; "), g.Profile, 100*g.IOShare, 100*g.SizeShare, g.Dies)
	}
	w.Flush()
	return b.String()
}

// RegionSpecs converts the plan into CreateRegion specifications.
func (p PlacementPlan) RegionSpecs() []RegionSpec {
	specs := make([]RegionSpec, 0, len(p.Groups))
	for _, g := range p.Groups {
		specs = append(specs, RegionSpec{Name: g.Name, MaxChips: g.Dies})
	}
	return specs
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

// Advise computes a placement plan for the given per-object statistics on a
// device of totalDies dies of pagesPerDie pages.
func Advise(objects []ObjectCounters, totalDies, pagesPerDie int, opts AdvisorOptions) PlacementPlan {
	if opts.MaxRegions <= 1 {
		opts.MaxRegions = 6
	}
	if len(objects) == 0 || totalDies <= 0 {
		return PlacementPlan{TotalDies: totalDies}
	}
	var totalTime float64
	for _, o := range objects {
		totalTime += float64(o.DieTime)
	}

	// Group: metadata + append-only objects share one region; every object
	// whose share of the die time exceeds the dedicated threshold gets its own
	// region; the rest are grouped by profile.
	type group struct {
		PlacementGroup
		key     string
		pages   int64
		dieTime float64
	}
	var groups []*group
	for _, o := range objects {
		share := float64(o.DieTime) / max(totalTime, 1)
		key, profile := "", classify(o, share)
		switch {
		case profile == ProfileMetadata, profile == ProfileAppendOnly && share < dedicatedShare:
			// Metadata and small append-only objects (HISTORY, the WAL)
			// share the metadata region; a large, I/O-intensive append-only
			// object deserves its own region instead.
			key, profile = "meta", ProfileAppendOnly
		case share >= dedicatedShare:
			key = "solo:" + o.Name
		default:
			key = "profile:" + string(profile)
		}
		i := slices.IndexFunc(groups, func(g *group) bool { return g.key == key })
		if i < 0 {
			i, groups = len(groups), append(groups, &group{key: key, PlacementGroup: PlacementGroup{Profile: profile}})
		}
		groups[i].Objects = append(groups[i].Objects, o.Name)
		groups[i].pages += o.SizePages
		groups[i].dieTime += float64(o.DieTime)
	}

	// Order groups: metadata first (to mirror Figure 2's region 0), then by
	// descending die time.
	sort.SliceStable(groups, func(i, j int) bool {
		if (groups[i].key == "meta") != (groups[j].key == "meta") {
			return groups[i].key == "meta"
		}
		return groups[i].dieTime > groups[j].dieTime
	})

	// Enforce the region budget — a region needs a die — by merging the two
	// smallest groups (the metadata group only once nothing else is left).
	for n := len(groups); n > min(opts.MaxRegions, totalDies); n-- {
		dst, src := groups[n-2], groups[n-1]
		dst.Objects = append(dst.Objects, src.Objects...)
		dst.pages += src.pages
		dst.dieTime += src.dieTime
		groups = groups[:n-1]
	}

	placed := make([]PlacementGroup, len(groups))
	pages, demand := make([]int64, len(groups)), make([]float64, len(groups))
	for i, g := range groups {
		sort.Strings(g.Objects)
		placed[i], pages[i], demand[i] = g.PlacementGroup, g.pages, g.dieTime
	}
	return NewPlan(placed, pages, demand, totalDies, pagesPerDie)
}

// NewPlan is the plan of a given grouping, given the groups' footprints in
// pages and their relative demand (I/O rate, in any one unit): the one place
// dies are handed out.  Advise calls it on its own grouping and the measured
// die time; the same call on another grouping or another demand (the paper's
// Figure 2, the a-priori weights of tpcc.Setup) gives the plans to set beside
// it.
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

// classify assigns an access profile from the object's device-side counters
// and its share of the total die time.
func classify(o ObjectCounters, share float64) AccessProfile {
	commands := o.Reads + o.Writes
	switch {
	case o.Kind == "meta" || o.Kind == "log" || o.Kind == "catalog":
		return ProfileMetadata
	case commands == 0:
		return ProfileCold
	case o.Writes > o.Reads && float64(o.Supersedes) < appendOnlySupersedes*float64(o.Writes):
		return ProfileAppendOnly
	case share < 0.01:
		return ProfileCold
	case float64(o.Writes) > 0.4*float64(commands):
		return ProfileWriteHot
	case float64(o.Reads) > 0.9*float64(commands):
		return ProfileReadMostly
	default:
		return ProfileMixed
	}
}
