package core

import (
	"strings"
	"testing"
	"time"

	"noftl/internal/metrics"
	"noftl/internal/sim"
)

// TestObjectDemandSumsToTheRegions drives two named objects and an unnamed one
// through first writes, overwrites, reads and enough churn for GC, and checks
// that every command is charged to exactly one object: the records sum to the
// region counters, split the writes by whether they superseded a mapped page,
// appear in the exposition WriteMetrics writes, restart from zero with
// ResetCounters, and that a forgotten object leaves the family while its cost
// stays in the sum.
func TestObjectDemandSumsToTheRegions(t *testing.T) {
	dev := smallDevice(t, 2, 16, 8)
	m := NewManager(dev, DefaultOptions())
	m.NameObject(1, "A", "table", func() int64 { return 11 })
	m.NameObject(2, "B", "index", func() int64 { return 22 })
	exposition := func() string {
		var mt metrics.Text
		m.WriteMetrics(&mt)
		return mt.String()
	}

	const pages = 180 // of 225 the device exports: GC victims hold valid pages to move
	base := m.AllocateLPNs(pages)
	var wantWrites, wantOver [4]int64 // by object id, counted as the pages are written
	written := map[LPN]bool{}
	rng := sim.NewRand(7)
	for n := 0; n < pages+1500; n++ {
		i := LPN(n) // the load, then random overwrites of the two thirds that are not object 1's
		for n >= pages && (i >= pages || i%3 == 0) {
			i = LPN(rng.Intn(pages))
		}
		object := uint32(1 + i%3) // object 3 is never named
		if _, err := m.WritePage(0, base+i, fillPage(dev, byte(i)), Hint{ObjectID: object}); err != nil {
			t.Fatal(err)
		}
		wantWrites[object]++
		if written[base+i] {
			wantOver[object]++
		}
		written[base+i] = true
	}
	for i := LPN(0); i < pages; i++ {
		if _, _, err := m.ReadPage(0, base+i, nil); err != nil {
			t.Fatal(err)
		}
	}

	check := func(stage string, wantNames ...string) map[string]ObjectCounters {
		t.Helper()
		st, byName := m.Stats(), map[string]ObjectCounters{}
		var reads, writes, copybacks int64
		for _, o := range m.ObjectStats() {
			byName[o.Name] = o
			reads, writes, copybacks = reads+o.Reads, writes+o.Writes, copybacks+o.Copybacks
		}
		if reads != st.HostReads || writes != st.HostWrites || copybacks != st.GCCopybacks {
			t.Fatalf("%s: objects sum to %d/%d/%d reads/writes/copybacks, regions to %d/%d/%d",
				stage, reads, writes, copybacks, st.HostReads, st.HostWrites, st.GCCopybacks)
		}
		if len(byName) != len(wantNames) {
			t.Fatalf("%s: objects %v, want %v", stage, byName, wantNames)
		}
		text := exposition()
		for _, name := range wantNames {
			if _, ok := byName[name]; !ok || !strings.Contains(text, `noftl_object_io_total{object="`+name+`"`) {
				t.Fatalf("%s: %s missing from the records or the exposition:\n%v", stage, name, byName)
			}
		}
		return byName
	}

	objs := check("after the churn", "A", "B", UnattributedObject)
	if st := m.Stats(); st.GCCopybacks == 0 {
		t.Fatal("degenerate workload: no GC")
	}
	a, b, u := objs["A"], objs["B"], objs[UnattributedObject]
	if a.Reads != 60 || a.Writes != 60 || a.Supersedes != 0 || a.SizePages != 11 || a.Kind != "table" || a.Copybacks == 0 {
		t.Fatalf("A is written once, read once per page and what GC has to move: %+v", a)
	}
	if b.Reads != 60 || b.Writes != wantWrites[2] || b.Supersedes != wantOver[2] || b.SizePages != 22 ||
		u.Writes != wantWrites[3] || u.Supersedes != wantOver[3] || wantOver[2] == 0 {
		t.Fatalf("B wrote %d pages (%d over a mapped one), the unnamed object %d (%d): %+v %+v",
			wantWrites[2], wantOver[2], wantWrites[3], wantOver[3], b, u)
	}
	timing := dev.Timing()
	if want := 60*timing.ReadPage + 60*timing.ProgramPage + time.Duration(a.Copybacks)*(timing.ReadPage+timing.ProgramPage); a.DieTime != want {
		t.Fatalf("A's die time is %v, its commands cost %v", a.DieTime, want)
	}

	m.ForgetObject(2)
	objs = check("after forgetting B", "A", UnattributedObject)
	if got := objs[UnattributedObject]; got.Writes != u.Writes+b.Writes || got.Copybacks != u.Copybacks+b.Copybacks {
		t.Fatalf("B's cost did not move to the unattributed record: %+v", got)
	}
	if strings.Contains(exposition(), `object="B"`) {
		t.Fatal("the forgotten object is still exposed")
	}
	m.NameObject(2, "B", "index", nil)
	if got := check("after naming a new B", "A", "B", UnattributedObject)["B"]; got.Writes != 0 || got.DieTime != 0 {
		t.Fatalf("an object re-created under the name must count from zero: %+v", got)
	}

	m.ResetCounters()
	if objs = check("after the reset", "A", "B"); objs["A"].DieTime != 0 {
		t.Fatalf("reset left %+v", objs)
	}
}
