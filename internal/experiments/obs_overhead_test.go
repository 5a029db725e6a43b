package experiments

import (
	"slices"
	"testing"
	"time"

	"noftl/internal/obs"
)

// hookSites stand for layers that hold their tracer in a field, as the hook
// sites do (nil while tracing is off): a package variable, so the compiler
// cannot know the values it loads.
var hookSites [8]struct{ tracer *obs.Tracer }

// guards runs the guard of all eight hook sites n times and returns how many
// rounds found tracing on.  The eight guards are written out, as a guard sits
// inline in its hook site: what is timed is a load, a compare and a branch
// each, and an eighth of the loop's own cost.
func guards(n int) (on int) {
	s := &hookSites
	for range n {
		if s[0].tracer.Enabled() || s[1].tracer.Enabled() || s[2].tracer.Enabled() || s[3].tracer.Enabled() ||
			s[4].tracer.Enabled() || s[5].tracer.Enabled() || s[6].tracer.Enabled() || s[7].tracer.Enabled() {
			on++
		}
	}
	return on
}

// TestTracingDisabledOverheadGate is the CI gate on the observability
// layer's cost contract: with tracing off (the default — a nil tracer), a
// hook site costs one nil-pointer compare, and the total guard cost over the
// batch_dml benchmark must stay below 2% of the benchmark's wall-clock time.
//
// The gate is analytic rather than a paired A/B timing run (which would be
// hostage to CI noise far above 2%): it measures the real per-call guard
// cost, multiplies by a gross overestimate of the hook invocations the
// workload can produce, and compares against the workload's real wall-clock
// time.  An instrumented run of the same shape records ~14 events per host
// page write across all hook sites, and a row costs at most ~2 page
// operations per phase — under 30 hook invocations per row across all four
// phases.  The bound below allows 100 per row, more than 3x that.
//
// The guard is timed as a hook site runs it (guards).  The benchmark and the
// guard are timed in turn, five times each, and the gate compares their
// medians, so a burst of host noise moves both or neither.
func TestTracingDisabledOverheadGate(t *testing.T) {
	const rows, runs = 1000, 5
	const iters = 1 << 22 // guard calls per timing
	var walls, perCalls []float64
	for range runs {
		start := time.Now()
		if _, err := RunBatchDML(rows, 256); err != nil {
			t.Fatal(err)
		}
		walls = append(walls, float64(time.Since(start)))

		guardStart := time.Now()
		enabled := guards(iters / len(hookSites))
		perCalls = append(perCalls, float64(time.Since(guardStart))/iters)
		if enabled != 0 {
			t.Fatal("nil tracer reported enabled")
		}
	}
	median := func(v []float64) float64 { slices.Sort(v); return v[len(v)/2] }
	wall, perCall := median(walls), median(perCalls)

	const hooksPerRow = 100 // across all four phases; gross overestimate, see doc comment
	overhead := perCall * float64(rows*hooksPerRow)
	limit := 0.02 * wall
	t.Logf("median of %d: wall=%v guard=%.2fns/call bound=%v limit=%v (%.4f%% of wall)",
		runs, time.Duration(wall), perCall, time.Duration(overhead), time.Duration(limit),
		100*overhead/wall)
	if overhead >= limit {
		t.Fatalf("tracing-disabled guard bound %v exceeds 2%% of wall clock %v",
			time.Duration(overhead), time.Duration(wall))
	}
}
