package noftl_test

import (
	"bytes"
	"reflect"
	"regexp"
	"testing"

	"noftl"
	"noftl/internal/obs"
	"noftl/internal/tpcc"
)

// foldedPath matches the Stats() paths the trace carries an event for:
// obs.Summarize counts under exactly these.
var foldedPath = regexp.MustCompile(`^(Device\.PerDie\[\d+\]\.(Reads|Programs|Erases|Copybacks)|` +
	`Space\.(HostReads|HostWrites|GCRuns|GCErases|GCStalls|BGGCSteps|WearMoves)|` +
	`Buffer\.(Misses|Evictions|Writebacks|GroupFlushes)|WAL\.(Appended|Flushes|BytesAppended))$`)

// TestTraceFoldsIntoStats: the trace is a view of the facts Stats() counts.
// Folded from its last reset, every count a traced run's events carry equals
// the Stats() field of the same path, and the host reads' and writes' spans
// build Stats().ReadLatency and WriteLatency bucket for bucket.  It holds for
// tiny TPC-C per placement (a reset after the load and one after the
// warm-up), for the observability churn with a reset half-way, and for both
// instances of the KV mix: a reopened database starts its trace and its
// counts together.
func TestTraceFoldsIntoStats(t *testing.T) {
	for _, placement := range []tpcc.PlacementKind{tpcc.PlacementTraditional, tpcc.PlacementRegions} {
		t.Run("tpcc/"+placement.String(), func(t *testing.T) {
			st, events := tinyTPCCStats(t, placement, true)
			requireFold(t, st, events)
		})
	}
	t.Run("observability", func(t *testing.T) {
		db, err := noftl.OpenConfig(noftl.ObsConfig(), noftl.WithTraceBuffer(0))
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		noftl.ObsWorkload(t, db, 150, 14, 7)
		st := db.Stats()
		if st.Space.GCStalls == 0 {
			t.Fatal("no foreground GC after the reset (enlarge the churn)")
		}
		var buf bytes.Buffer
		if _, err := db.Admin().TraceDump(&buf); err != nil {
			t.Fatal(err)
		}
		events, err := obs.LoadJSONL(&buf)
		if err != nil {
			t.Fatal(err)
		}
		requireFold(t, st, events)
	})
	t.Run("kv-mix", func(t *testing.T) {
		before, after, _ := kvMix(t)
		requireFold(t, before.stats, before.events)
		requireFold(t, after.stats, after.events)
	})
}

// requireFold requires obs.Summarize(events) to equal st: every path the fold
// counts under is a foldedPath, every foldedPath of st holds the fold's count
// (zero when the fold has none), and the host latencies are equal snapshots.
func requireFold(t *testing.T, st noftl.Stats, events []obs.Event) {
	t.Helper()
	if st.Trace.Dropped != 0 {
		t.Fatalf("the ring dropped %d events: the fold would miss them", st.Trace.Dropped)
	}
	sum := obs.Summarize(events)
	if len(sum.Counts) == 0 {
		t.Fatal("the trace folds to no count")
	}
	for path, n := range sum.Counts {
		if !foldedPath.MatchString(path) {
			t.Errorf("the fold counts %s=%d, a path it does not cover", path, n)
		}
	}
	noftl.WalkFields(st, func(path string, leaf reflect.Value) {
		if foldedPath.MatchString(path) && sum.Counts[path] != leaf.Int() {
			t.Errorf("%s: the trace folds to %d, Stats() has %d", path, sum.Counts[path], leaf.Int())
		}
	})
	for _, l := range []struct {
		name        string
		fold, stats any
	}{{"ReadLatency", sum.ReadLatency, st.ReadLatency}, {"WriteLatency", sum.WriteLatency, st.WriteLatency}} {
		if l.fold != l.stats {
			t.Errorf("%s: the trace folds to %+v, Stats() has %+v", l.name, l.fold, l.stats)
		}
	}
}
