package core

import (
	"fmt"
	"sort"

	"noftl/internal/metrics"
)

// RegionSpec describes a region to create, mirroring the paper's
//
//	CREATE REGION rgHotTbl (MAX_CHIPS=8, MAX_CHANNELS=4, MAX_SIZE=1280M);
//
// statement: the number of dies ("chips"), the maximum number of channels
// those dies may span, and an optional cap on the logical size of the region.
type RegionSpec struct {
	// Name is the region name (unique, case-sensitive).
	Name string
	// MaxChips is the number of dies to assign to the region.
	MaxChips int
	// MaxChannels limits how many distinct channels the region's dies may
	// span; zero means no limit.
	MaxChannels int
	// MaxSizeBytes caps the logical size of the region; zero means the
	// region may use the full exported capacity of its dies.
	MaxSizeBytes int64
	// Dies optionally pins the region to these specific die indexes.  When
	// non-empty it overrides MaxChips/MaxChannels-based selection.
	Dies []int
	// GC optionally overrides the manager's default garbage-collection
	// policy for this region (the paper's per-region GC configuration).
	GC *GCPolicy
}

// Validate reports whether the spec is well formed.
func (s RegionSpec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("%w: empty region name", ErrInvalidSpec)
	}
	if len(s.Dies) == 0 && s.MaxChips <= 0 {
		return fmt.Errorf("%w: region %q needs MAX_CHIPS > 0 or an explicit die list", ErrInvalidSpec, s.Name)
	}
	if s.MaxChannels < 0 || s.MaxSizeBytes < 0 {
		return fmt.Errorf("%w: region %q has negative limits", ErrInvalidSpec, s.Name)
	}
	return nil
}

// RegionSpecs returns, sorted by name, the specs that recreate every region
// but the default one as it is now: the limits it was created with, the dies it
// owns and its live garbage-collection policy.
func (m *Manager) RegionSpecs() []RegionSpec {
	specs := make([]RegionSpec, 0, len(m.regions)-1)
	for _, r := range m.regions {
		if r.id != DefaultRegionID {
			spec, gc := r.spec, r.gc
			spec.Dies, spec.GC = sortedCopy(r.dies), &gc
			specs = append(specs, spec)
		}
	}
	sort.Slice(specs, func(a, b int) bool { return specs[a].Name < specs[b].Name })
	return specs
}

// Region is a physical storage structure comprising a set of flash dies over
// which the data placed in the region is evenly distributed.
//
// All mutable state is the owning Manager's; Region values handed out to
// callers must only be inspected through Manager.Stats or the read-only
// accessors, which take snapshots.
type Region struct {
	id   RegionID
	name string
	spec RegionSpec // as created, minus Dies and GC: the two fields below are the live ones
	dies []int      // die indexes owned by this region, sorted

	maxSizePages  int64 // 0 = unlimited (within die capacity)
	capacityPages int64 // exported logical capacity (after over-provisioning and MAX_SIZE)
	physPages     int64 // capacity of the dies after over-provisioning, MAX_SIZE aside
	validPages    int64 // logical pages currently mapped into this region
	admitted      int64 // pages a write batch in flight has placed here but not yet committed
	retainedPages int64 // superseded pages on this region's dies a checkpoint still needs (retain.go)
	retainBudget  int64 // retained pages above which a checkpoint is due

	gc GCPolicy // per-region garbage-collection policy

	// Statistics (Manager.WriteMetrics exports them); host reads and writes
	// count successful operations.
	hostReads   int64
	hostWrites  int64
	gcCopybacks int64
	gcErases    int64
	gcStalls    int64 // foreground collections: an allocation hit the low watermark
	bgSteps     int64 // bounded background GC steps performed
	wlMoves     int64
	gcRuns      int64
	spills      int64 // writes redirected to the default region because this region was full
	readLat     metrics.Histogram
	writeLat    metrics.Histogram

	rr int // round-robin cursor over dies for write placement
}

// resetCounters zeroes the region's statistics.
func (r *Region) resetCounters() {
	r.hostReads, r.hostWrites, r.gcCopybacks, r.gcErases = 0, 0, 0, 0
	r.gcStalls, r.bgSteps, r.wlMoves, r.gcRuns, r.spills = 0, 0, 0, 0, 0
	r.readLat.Reset()
	r.writeLat.Reset()
}

// absorb adds the statistics of o, a region being dropped, to r's.
func (r *Region) absorb(o *Region) {
	r.hostReads += o.hostReads
	r.hostWrites += o.hostWrites
	r.gcCopybacks += o.gcCopybacks
	r.gcErases += o.gcErases
	r.gcStalls += o.gcStalls
	r.bgSteps += o.bgSteps
	r.wlMoves += o.wlMoves
	r.gcRuns += o.gcRuns
	r.spills += o.spills
	r.readLat.Merge(&o.readLat)
	r.writeLat.Merge(&o.writeLat)
}

// ID returns the region's identifier.
func (r *Region) ID() RegionID { return r.id }

// Name returns the region's name.
func (r *Region) Name() string { return r.name }

// RegionStats is a read-only snapshot of a region's configuration and
// counters.
type RegionStats struct {
	ID            RegionID
	Name          string
	Dies          []int
	Channels      int
	CapacityPages int64
	ValidPages    int64
	// RetainedPages counts the superseded physical pages on the region's dies
	// that still hold the image of the last checkpoint; they live in the
	// over-provisioned spare until the next checkpoint releases them.
	RetainedPages int64
	FreeBlocks    int
	GC            GCPolicy
	HostReads     int64
	HostWrites    int64
	GCCopybacks   int64
	GCErases      int64
	GCRuns        int64
	GCStalls      int64 // foreground (blocking) collections under the low watermark
	BGGCSteps     int64 // bounded background GC steps
	WearMoves     int64
	SpilledWrites int64
	ReadLatency   metrics.Snapshot
	WriteLatency  metrics.Snapshot
	MinErase      int64
	MaxErase      int64
	TotalErase    int64
	// Background-GC watermark state of the region's dies at snapshot time.
	BGDebtBlocks   int64 // total free-block shortfall relative to the high watermark
	DiesInBGBand   int   // dies at or below the high watermark (background band)
	DiesAtLowWater int   // dies at or below the low watermark
	BGVictimsOpen  int   // dies with an in-progress (partially relocated) background victim
}

// WriteAmplification returns (host writes + GC copybacks) / host writes, the
// standard flash write-amplification factor, or zero when no host writes
// happened.
func (s RegionStats) WriteAmplification() float64 {
	if s.HostWrites == 0 {
		return 0
	}
	return float64(s.HostWrites+s.GCCopybacks) / float64(s.HostWrites)
}

// String renders a one-line summary.
func (s RegionStats) String() string {
	return fmt.Sprintf("region %q (id %d): %d dies, %d/%d pages valid, reads=%d writes=%d copybacks=%d erases=%d",
		s.Name, s.ID, len(s.Dies), s.ValidPages, s.CapacityPages,
		s.HostReads, s.HostWrites, s.GCCopybacks, s.GCErases)
}

// sortedCopy returns a sorted copy of dies.
func sortedCopy(dies []int) []int {
	out := make([]int, len(dies))
	copy(out, dies)
	sort.Ints(out)
	return out
}
