package noftl

import "io"

// Admin is the narrow administrative facade for what the schema statements
// do not cover: growing a region, reading a policy, checking the space
// manager, dumping the trace and arming faults.  It replaces the former
// SpaceManager()/Scheduler() escape hatches: everything a DBA tool needs,
// nothing that couples callers to internal structures.  Regions are created
// with DB.CreateRegion or CREATE REGION, changed with ALTER REGION … SET and
// dropped with DROP REGION.
type Admin interface {
	// GrowRegion moves n (≥ 1) additional empty dies from the default region
	// into the named region.
	GrowRegion(name string, n int) error
	// GCPolicy returns the live garbage-collection policy of a region.
	GCPolicy(region string) (GCPolicy, bool)
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

func (a *admin) GrowRegion(name string, n int) error {
	// Die assignment travels in the checkpoint's region marks; ddl keeps it durable.
	return a.db.ddl(func() error { return a.db.space.GrowRegion(name, n) })
}

func (a *admin) GCPolicy(region string) (GCPolicy, bool) {
	a.db.baton.Lock()
	defer a.db.baton.Unlock()
	return a.db.space.GCPolicyOf(region)
}

func (a *admin) VerifyIntegrity() error {
	a.db.baton.Lock()
	defer a.db.baton.Unlock()
	return a.db.space.VerifyIntegrity()
}

func (a *admin) TraceDump(w io.Writer) (int, error) {
	a.db.baton.Lock()
	defer a.db.baton.Unlock()
	return a.db.tracer.Dump(w)
}

func (a *admin) ArmFaults(plan FaultPlan) {
	a.db.baton.Lock()
	defer a.db.baton.Unlock()
	a.db.dev.Arm(plan)
}
