package core

import (
	"strings"
	"testing"
	"time"

	"noftl/internal/flash"
)

// object fabricates a device-side record: nine tenths of an updated object's
// writes supersede a mapped page, and the die time follows from the counts the
// way Manager.ObjectStats derives it.
func object(name, kind string, reads, writes, copybacks, sizePages int64) ObjectCounters {
	t := flash.DefaultTiming()
	return ObjectCounters{
		Name: name, Kind: kind, SizePages: sizePages,
		Reads: reads, Writes: writes, Supersedes: writes * 9 / 10, Copybacks: copybacks,
		DieTime: time.Duration(reads)*t.ReadPage + time.Duration(writes)*t.ProgramPage +
			time.Duration(copybacks)*(t.ReadPage+t.ProgramPage),
	}
}

// tpccLikeStats fabricates per-object statistics with the qualitative shape
// of a TPC-C run: ORDERLINE and STOCK write-hot and large, CUSTOMER mixed,
// ITEM/WAREHOUSE/DISTRICT read-mostly and small, HISTORY and the WAL
// append-only (their writes supersede little or nothing), DBMS metadata tiny.
func tpccLikeStats() []ObjectCounters {
	history := object("HISTORY", "table", 1_000, 12_000, 9_000, 12_000)
	history.Supersedes = 3_000
	wal := object("WAL", "log", 100, 90_000, 0, 4_000)
	wal.Supersedes = 0
	return []ObjectCounters{
		object("ORDERLINE", "table", 900_000, 800_000, 600_000, 90_000),
		object("STOCK", "table", 1_200_000, 700_000, 500_000, 120_000),
		object("OL_IDX", "index", 800_000, 500_000, 300_000, 40_000),
		object("CUSTOMER", "table", 700_000, 250_000, 200_000, 80_000),
		object("ORDER", "table", 150_000, 120_000, 90_000, 15_000),
		object("NEW_ORDER", "table", 100_000, 110_000, 60_000, 3_000),
		object("O_IDX", "index", 90_000, 60_000, 30_000, 5_000),
		object("NO_IDX", "index", 70_000, 60_000, 30_000, 2_000),
		object("O_CUST_IDX", "index", 60_000, 50_000, 20_000, 3_000),
		object("C_IDX", "index", 200_000, 15_000, 10_000, 8_000),
		object("S_IDX", "index", 250_000, 10_000, 10_000, 9_000),
		object("I_IDX", "index", 180_000, 0, 5_000, 6_000),
		object("W_IDX", "index", 50_000, 100, 0, 100),
		object("D_IDX", "index", 50_000, 100, 0, 100),
		object("C_NAME_IDX", "index", 90_000, 15_000, 10_000, 7_000),
		object("ITEM", "table", 400_000, 0, 8_000, 10_000),
		object("WAREHOUSE", "table", 120_000, 40_000, 100, 50),
		object("DISTRICT", "table", 130_000, 45_000, 100, 60),
		history,
		object("DBMS-metadata", "meta", 5_000, 2_000, 100, 200),
		wal,
	}
}

func TestAdviseProducesPaperShapedPlan(t *testing.T) {
	objs := tpccLikeStats()
	plan := Advise(objs, 64, 8192, AdvisorOptions{MaxRegions: 6})

	if len(plan.Groups) == 0 || len(plan.Groups) > 6 {
		t.Fatalf("plan has %d groups, want 1..6", len(plan.Groups))
	}
	if plan.TotalDies != 64 {
		t.Fatalf("plan dies = %d", plan.TotalDies)
	}
	// Die counts: every group gets at least one die and the total is exactly
	// the device's die count.
	sum := 0
	for _, g := range plan.Groups {
		if g.Dies < 1 {
			t.Fatalf("group %q got %d dies", g.Name, g.Dies)
		}
		sum += g.Dies
	}
	if sum != 64 {
		t.Fatalf("die total = %d, want 64", sum)
	}
	// Every object appears in exactly one group.
	seen := map[string]int{}
	for _, g := range plan.Groups {
		for _, o := range g.Objects {
			seen[o]++
		}
	}
	for _, o := range objs {
		if seen[o.Name] != 1 {
			t.Fatalf("object %s placed %d times", o.Name, seen[o.Name])
		}
	}
	// The metadata/append-only group exists, is placed first and is small,
	// mirroring Figure 2's region 0 (DBMS-metadata; HISTORY on 2 dies).
	first := plan.Groups[0]
	if first.Profile != ProfileAppendOnly && first.Profile != ProfileMetadata {
		t.Fatalf("first group profile = %s", first.Profile)
	}
	if plan.GroupOf("DBMS-metadata") != 0 || plan.GroupOf("HISTORY") != 0 {
		t.Fatalf("metadata/HISTORY not grouped together: %d %d",
			plan.GroupOf("DBMS-metadata"), plan.GroupOf("HISTORY"))
	}
	if first.Dies > 8 {
		t.Fatalf("metadata region got %d dies; should be small", first.Dies)
	}
	// The hottest large objects (STOCK, ORDERLINE) must sit in large regions:
	// larger than the metadata region.
	for _, name := range []string{"STOCK", "ORDERLINE"} {
		gi := plan.GroupOf(name)
		if gi < 0 {
			t.Fatalf("%s not placed", name)
		}
		if plan.Groups[gi].Dies <= first.Dies {
			t.Fatalf("%s region has %d dies, not larger than metadata region (%d)",
				name, plan.Groups[gi].Dies, first.Dies)
		}
	}
	// Hot objects and cold objects must not share a region.
	if plan.GroupOf("ORDERLINE") == plan.GroupOf("ITEM") {
		t.Fatal("hot ORDERLINE and cold ITEM ended up in the same region")
	}
	// The rendered table mentions every region and the die counts.
	table := plan.TableString()
	for _, g := range plan.Groups {
		if !strings.Contains(table, g.Objects[0]) {
			t.Fatalf("table missing object %s:\n%s", g.Objects[0], table)
		}
	}
	// RegionSpecs mirror the groups.
	specs := plan.RegionSpecs()
	if len(specs) != len(plan.Groups) {
		t.Fatalf("specs = %d, groups = %d", len(specs), len(plan.Groups))
	}
	for i, s := range specs {
		if s.MaxChips != plan.Groups[i].Dies || s.Name == "" {
			t.Fatalf("spec %d does not match group: %+v", i, s)
		}
	}
}

func TestAdviseRespectsMaxRegions(t *testing.T) {
	objs := tpccLikeStats()
	for _, maxR := range []int{2, 3, 4, 6, 8} {
		plan := Advise(objs, 32, 16384, AdvisorOptions{MaxRegions: maxR})
		if len(plan.Groups) > maxR {
			t.Fatalf("maxRegions=%d produced %d groups", maxR, len(plan.Groups))
		}
		sum := 0
		for _, g := range plan.Groups {
			sum += g.Dies
		}
		if sum != 32 {
			t.Fatalf("maxRegions=%d allocated %d dies, want 32", maxR, sum)
		}
	}
}

func TestAdviseEdgeCases(t *testing.T) {
	// No objects.
	plan := Advise(nil, 8, 1024, AdvisorOptions{})
	if len(plan.Groups) != 0 {
		t.Fatalf("empty input produced groups: %+v", plan.Groups)
	}
	// One object takes every die.
	plan = Advise([]ObjectCounters{object("T", "table", 10, 10, 0, 10)}, 8, 1024, AdvisorOptions{})
	if len(plan.Groups) != 1 || plan.Groups[0].Dies != 8 {
		t.Fatalf("single object plan wrong: %+v", plan.Groups)
	}
	// Objects with zero I/O still get placed (cold profile).
	plan = Advise([]ObjectCounters{
		{Name: "A", Kind: "table"},
		{Name: "B", Kind: "table"},
	}, 4, 1024, AdvisorOptions{})
	if plan.GroupOf("A") < 0 || plan.GroupOf("B") < 0 {
		t.Fatalf("cold objects not placed: %+v", plan.Groups)
	}
	// More objects that want a region of their own than dies: a region needs
	// a die, so groups are merged down to the budget and every object stays
	// placed.
	many := []ObjectCounters{}
	for _, n := range []string{"A", "B", "C", "D"} {
		many = append(many, object(n, "table", 1000, 1000, 0, 100))
	}
	plan = Advise(many, 2, 1024, AdvisorOptions{MaxRegions: 4})
	total := 0
	for _, g := range plan.Groups {
		if g.Dies < 1 {
			t.Fatalf("group with zero dies: %+v", g)
		}
		total += g.Dies
	}
	if total != 2 || plan.GroupOf("A") < 0 || plan.GroupOf("D") < 0 {
		t.Fatalf("allocated %d dies of a 2-die budget: %+v", total, plan.Groups)
	}
	// GroupOf for an unknown object.
	if plan.GroupOf("nope") != -1 {
		t.Fatal("GroupOf unknown object should be -1")
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		in    ObjectCounters
		share float64
		want  AccessProfile
	}{
		{ObjectCounters{Kind: "meta", Reads: 1}, 0.5, ProfileMetadata},
		{ObjectCounters{Kind: "log", Writes: 100}, 0.5, ProfileMetadata},
		{ObjectCounters{Kind: "table"}, 0, ProfileCold},
		// HISTORY: written, hardly read, a quarter of the writes supersede.
		{ObjectCounters{Kind: "table", Writes: 100, Supersedes: 26, Reads: 10}, 0.2, ProfileAppendOnly},
		{ObjectCounters{Kind: "table", Writes: 100, Supersedes: 26, Reads: 10}, 0.001, ProfileAppendOnly},
		// ORDERLINE grows by appends too, but rewrites its pages as they fill.
		{ObjectCounters{Kind: "table", Writes: 100, Supersedes: 81, Reads: 10}, 0.2, ProfileWriteHot},
		// Loaded once and read since: first writes alone do not make a log.
		{ObjectCounters{Kind: "table", Writes: 3, Reads: 100}, 0.2, ProfileReadMostly},
		{ObjectCounters{Kind: "table", Reads: 50, Writes: 50, Supersedes: 50}, 0.2, ProfileWriteHot},
		{ObjectCounters{Kind: "table", Reads: 100, Writes: 1, Supersedes: 1}, 0.2, ProfileReadMostly},
		{ObjectCounters{Kind: "table", Reads: 70, Writes: 30, Supersedes: 30}, 0.2, ProfileMixed},
		{ObjectCounters{Kind: "table", Reads: 70, Writes: 30, Supersedes: 30}, 0.001, ProfileCold},
	}
	for i, c := range cases {
		if got := classify(c.in, c.share); got != c.want {
			t.Errorf("case %d: classify = %s, want %s", i, got, c.want)
		}
	}
}
