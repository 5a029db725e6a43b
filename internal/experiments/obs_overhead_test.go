package experiments

import (
	"testing"
	"time"

	"noftl/internal/obs"
)

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
func TestTracingDisabledOverheadGate(t *testing.T) {
	const rows = 1000
	start := time.Now()
	if _, err := RunBatchDML(rows, 256); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)

	// Per-call cost of the disabled-path guard on a nil tracer.
	var tr *obs.Tracer
	const iters = 1 << 22
	enabled := false
	guardStart := time.Now()
	for i := 0; i < iters; i++ {
		enabled = enabled || tr.Enabled()
	}
	guardTotal := time.Since(guardStart)
	if enabled {
		t.Fatal("nil tracer reported enabled")
	}
	perCall := float64(guardTotal) / float64(iters)

	const hooksPerRow = 100 // across all four phases; gross overestimate, see doc comment
	overhead := perCall * float64(rows*hooksPerRow)
	limit := 0.02 * float64(wall)
	t.Logf("wall=%v guard=%.2fns/call bound=%v limit=%v (%.4f%% of wall)",
		wall, perCall, time.Duration(overhead), time.Duration(limit),
		100*overhead/float64(wall))
	if overhead >= limit {
		t.Fatalf("tracing-disabled guard bound %v exceeds 2%% of wall clock %v",
			time.Duration(overhead), wall)
	}
}
