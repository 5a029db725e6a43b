package noftl

import "io"

// Admin is the narrow administrative facade for region, garbage-collection
// and wear operations.  It replaces the former SpaceManager()/Scheduler()
// escape hatches: everything a DBA tool needs, nothing that couples callers
// to internal structures.
type Admin interface {
	// CreateRegion creates a NoFTL region (the programmatic CREATE REGION).
	CreateRegion(spec RegionSpec) error
	// DropRegion drops an empty region and returns its dies to the default
	// region (ErrConflict when tablespaces still reference it).
	DropRegion(name string) error
	// GrowRegion moves n additional dies from the default region into the
	// named region.
	GrowRegion(name string, n int) error
	// SetGCPolicy switches the live garbage-collection policy of a region
	// (the programmatic ALTER REGION … SET).
	SetGCPolicy(region string, gc GCPolicy) error
	// GCPolicy returns the live garbage-collection policy of a region.
	GCPolicy(region string) (GCPolicy, bool)
	// PumpBackgroundGC runs bounded background GC steps on every die that is
	// in its background band, returning the number of steps taken.  Drivers
	// call it in idle periods to pay down GC debt off the critical path.
	PumpBackgroundGC() int
	// VerifyIntegrity cross-checks the space manager's mapping, per-block
	// accounting and region capacities, returning the first inconsistency.
	VerifyIntegrity() error
	// TraceDump writes the currently retained trace events to w as JSONL
	// (the stream the noftl-trace CLI consumes) and returns the number of
	// events written.  It returns 0 without error when tracing is off; the
	// ring buffer keeps recording, so mid-run dumps are snapshots, not
	// drains.
	TraceDump(w io.Writer) (int, error)
	// ArmFaults arms a deterministic fault-injection plan on the flash
	// device from this point on (chaos harnesses arm after schema setup so
	// crash points land in the measured workload).  See WithFaultPlan for
	// arming at open.
	ArmFaults(plan FaultPlan)
}

// Admin returns the administrative facade.
func (db *DB) Admin() Admin { return &admin{db: db} }

type admin struct{ db *DB }

func (a *admin) CreateRegion(spec RegionSpec) error {
	return a.db.CreateRegion(spec)
}

func (a *admin) DropRegion(name string) error { return a.db.dropRegion(name) }

func (a *admin) GrowRegion(name string, n int) error {
	// Die assignment travels in the checkpoint's region marks; ddl keeps it durable.
	return a.db.ddl(func() error { return a.db.space.GrowRegion(name, n) })
}

func (a *admin) SetGCPolicy(region string, gc GCPolicy) error { return a.db.setGCPolicy(region, gc) }

func (a *admin) GCPolicy(region string) (GCPolicy, bool) {
	return a.db.space.GCPolicyOf(region)
}

func (a *admin) PumpBackgroundGC() int {
	return a.db.space.PumpBackgroundGC(a.db.clock.Now())
}

func (a *admin) VerifyIntegrity() error {
	return a.db.space.VerifyIntegrity()
}

func (a *admin) TraceDump(w io.Writer) (int, error) {
	return a.db.tracer.Dump(w)
}

func (a *admin) ArmFaults(plan FaultPlan) {
	a.db.dev.Arm(plan)
}
