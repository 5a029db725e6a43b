package noftl

import (
	"time"

	"noftl/internal/core"
	"noftl/internal/flash"
)

// Re-exported configuration types, so callers can tune every layer without
// importing internal packages.
type (
	// FlashConfig configures the simulated native flash device (geometry,
	// NAND timing, endurance).
	FlashConfig = flash.Config
	// DeviceGeometry describes the flash device's physical shape (channels,
	// dies, blocks, pages).
	DeviceGeometry = flash.Geometry
	// SpaceOptions configures the NoFTL space manager (placement mode,
	// over-provisioning, background GC and the default GC policy).
	SpaceOptions = core.Options
	// GCPolicy is a per-region garbage-collection policy (victim selection,
	// background step size, hot/cold separation).
	GCPolicy = core.GCPolicy
	// PlacementMode selects region-aware or traditional placement.
	PlacementMode = core.PlacementMode
	// FaultPlan configures deterministic fault injection on the flash device
	// (crash points, torn tail writes, program and erase failures).
	FaultPlan = flash.FaultPlan
)

// Option is a functional configuration option for Open.  Options are applied
// in order over DefaultConfig(), so later options override earlier ones.
type Option func(*Config)

// WithBufferPoolPages sets the number of page frames in the buffer pool.
func WithBufferPoolPages(n int) Option {
	return func(c *Config) { c.BufferPoolPages = n }
}

// WithLockTimeout sets a lock wait's budget in virtual time (see
// Config.LockTimeout); a deadlock fails at once, whatever the budget.
func WithLockTimeout(d time.Duration) Option {
	return func(c *Config) { c.LockTimeout = d }
}

// WithTraceBuffer enables event tracing into a ring buffer of n events; zero
// keeps the 65536-event default capacity.  Tracing is off by default.
// Admin().TraceDump writes the retained events as JSONL (the stream the
// noftl-trace CLI consumes).
func WithTraceBuffer(n int) Option {
	return func(c *Config) {
		c.TraceBufferEvents = n
		if c.TraceBufferEvents <= 0 {
			c.TraceBufferEvents = -1 // explicit "enabled, default capacity"
		}
	}
}

// WithCheckpointEvery enables automatic checkpoints: one is taken whenever
// bytes of WAL have been appended since the last checkpoint (the check runs
// after each commit; zero disables it).  Checkpoints bound crash-recovery
// replay: recovery starts at the last checkpoint and redoes only the log
// written after it.
//
//	db, _ := noftl.Open(noftl.WithCheckpointEvery(256 << 10))
func WithCheckpointEvery(bytes int64) Option {
	return func(c *Config) { c.CheckpointEveryBytes = bytes }
}

// WithLightCheckpoints switches checkpoints to the light form: flush dirty
// pages and truncate the whole WAL without describing the state or retaining
// the page versions it consists of.  This gives up crash recovery (Reopen
// refuses such a log) — the classic reduced-durability benchmark regime.
func WithLightCheckpoints() Option {
	return func(c *Config) { c.DisableSnapshotCheckpoints = true }
}

// WithFaultPlan arms deterministic fault injection on the flash device the
// moment it is created.  With the same plan (and the same workload) every
// fault fires at the same point, so crash tests are reproducible.  See
// Admin().ArmFaults to arm a plan later (e.g. after schema setup).
func WithFaultPlan(plan FaultPlan) Option {
	return func(c *Config) { c.FaultPlan = plan }
}

// Open creates a database over a fresh simulated flash device.  The
// configuration starts from DefaultConfig() and is refined by the options in
// order:
//
//	db, err := noftl.Open()                                  // all defaults
//	db, err := noftl.Open(noftl.WithBufferPoolPages(4096),
//	                      noftl.WithLockTimeout(time.Second))
func Open(opts ...Option) (*DB, error) {
	cfg := DefaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	return OpenConfig(cfg)
}

// OpenConfig creates a database from a fully built Config, then applies any
// further options.  Open is the idiomatic entry point; OpenConfig suits
// callers that assemble configurations programmatically (benchmark
// harnesses, tests).
func OpenConfig(cfg Config, opts ...Option) (*DB, error) {
	for _, opt := range opts {
		opt(&cfg)
	}
	cfg = cfg.withDefaults()
	dev, err := flash.NewDevice(cfg.Flash)
	if err != nil {
		return nil, err
	}
	if cfg.FaultPlan != (FaultPlan{}) {
		dev.Arm(cfg.FaultPlan)
	}
	return openWith(cfg, dev, core.NewManager(dev, cfg.Space)), nil
}
