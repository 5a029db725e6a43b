package flash

import (
	"errors"
	"fmt"

	"noftl/internal/sim"
)

// ErrCrashed reports an operation issued against a device that has hit (or
// already passed) an armed crash point.  Every command fails with it until
// Revive is called; the failing command itself takes no effect, so a crash is
// atomic at page-program granularity (except for an explicitly torn program,
// see FaultPlan.TornTailBytes).
var ErrCrashed = errors.New("flash: device crashed (fault injection)")

// ErrProgramFault reports an injected transient program failure.  The page
// stays erased; the caller may retry on a different page or block.
var ErrProgramFault = errors.New("flash: injected program failure")

// ErrEraseFault reports an injected erase failure on a worn block.  The block
// is marked bad, exactly like a block that exhausted its configured
// endurance.
var ErrEraseFault = errors.New("flash: injected erase failure (worn block)")

// FaultPlan is a deterministic fault-injection schedule.  All decisions
// derive from Seed and the op sequence, so a plan replayed against the same
// workload fails at exactly the same points.  The zero value injects
// nothing.
type FaultPlan struct {
	// Seed drives the plan's pseudo-random decisions.
	Seed uint64
	// CrashAtTime crashes the device at the first command whose start time
	// is >= the given virtual time (0 = disabled).
	CrashAtTime sim.Time
	// CrashAfterOps crashes the device on the Nth command after arming
	// (0 = disabled).  Counting includes every read, program, erase and
	// copyback, so crash points land inside GC relocations, checkpoint
	// flushes and log forces as the workload dictates.
	CrashAfterOps int64
	// TornTailBytes, when > 0, makes the crash-triggering command — if it is
	// a page program — apply only a prefix of the page payload, leaving the
	// final TornTailBytes bytes unwritten (zero).  This models a program
	// interrupted by power loss; the OOB metadata is still written, so the
	// page looks programmed but fails content validation.
	TornTailBytes int
	// FailProgramEvery injects a transient ErrProgramFault on every Nth
	// program (0 = disabled).  The target page stays erased.
	FailProgramEvery int64
	// FailEraseEvery injects an ErrEraseFault on every Nth erase
	// (0 = disabled).  The block is marked bad, modelling wear-out.
	FailEraseEvery int64
	// FailProgramProb and FailEraseProb inject the same failures
	// probabilistically (per command, seeded by Seed).
	FailProgramProb float64
	FailEraseProb   float64
}

// enabled reports whether the plan can ever inject anything.
func (p FaultPlan) enabled() bool {
	return p.CrashAtTime > 0 || p.CrashAfterOps > 0 ||
		p.FailProgramEvery > 0 || p.FailEraseEvery > 0 ||
		p.FailProgramProb > 0 || p.FailEraseProb > 0
}

// faultState is the armed plan plus its mutable counters.
type faultState struct {
	plan     FaultPlan
	rng      *sim.Rand
	ops      int64
	programs int64
	erases   int64
	crashed  bool
}

// opKind classifies device commands for fault accounting.
type opKind uint8

const (
	opRead opKind = iota
	opProgram
	opErase
	opCopyback
)

// faultDecision tells the calling command what to do.
type faultDecision struct {
	crash       bool // fail with ErrCrashed; op takes no effect
	tornProgram bool // crash, but program a torn prefix first
	tornBytes   int
	failProgram bool // fail with ErrProgramFault; page stays erased
	failErase   bool // fail with ErrEraseFault; block goes bad
}

// Arm installs a fault plan.  Arming replaces any previous plan and resets
// its counters; arming the zero plan disarms injection entirely.
func (d *Device) Arm(plan FaultPlan) {
	if !plan.enabled() {
		d.fault = nil
		return
	}
	d.fault = &faultState{plan: plan, rng: sim.NewRand(plan.Seed | 1)}
}

// Revive clears the crashed state and disarms the fault plan, modelling a
// power cycle.  Durable state (programmed pages, wear, bad blocks — including
// any torn page written at the crash point) is untouched; recovery decides
// what of it is still meaningful.
func (d *Device) Revive() {
	d.fault = nil
}

// faultOp runs the fault plan for one command.  It returns the decision the
// command must honour before touching any die state.
func (d *Device) faultOp(now sim.Time, kind opKind) faultDecision {
	f := d.fault
	if f == nil {
		return faultDecision{}
	}
	if f.crashed {
		return faultDecision{crash: true}
	}
	f.ops++
	p := f.plan
	if (p.CrashAfterOps > 0 && f.ops >= p.CrashAfterOps) ||
		(p.CrashAtTime > 0 && now >= p.CrashAtTime) {
		f.crashed = true
		if kind == opProgram && p.TornTailBytes > 0 {
			return faultDecision{crash: true, tornProgram: true, tornBytes: p.TornTailBytes}
		}
		return faultDecision{crash: true}
	}
	switch kind {
	case opProgram, opCopyback:
		f.programs++
		if (p.FailProgramEvery > 0 && f.programs%p.FailProgramEvery == 0) ||
			(p.FailProgramProb > 0 && f.rng.Float64() < p.FailProgramProb) {
			return faultDecision{failProgram: true}
		}
	case opErase:
		f.erases++
		if (p.FailEraseEvery > 0 && f.erases%p.FailEraseEvery == 0) ||
			(p.FailEraseProb > 0 && f.rng.Float64() < p.FailEraseProb) {
			return faultDecision{failErase: true}
		}
	}
	return faultDecision{}
}

// PageSurvey is one programmed page found by Survey.
type PageSurvey struct {
	Addr Addr
	Meta PageMeta
}

// BlockSurvey is the durable state of one erase block as found by Survey.
type BlockSurvey struct {
	Addr       BlockAddr
	Bad        bool
	EraseCount int64
	NextPage   int
	// Pages lists every programmed page of the block in program order,
	// including superseded versions of rewritten logical pages.
	Pages []PageSurvey
}

// Survey walks the device's durable state: every block's wear and bad-block
// flag plus the OOB metadata of every programmed page.  It is the bulk form
// of the post-crash OOB scan recovery performs to rebuild the logical-to-
// physical mapping, and does not consume virtual time (the cost is charged by
// the recovery path that interprets it).
func (d *Device) Survey() []BlockSurvey {
	out := make([]BlockSurvey, 0, d.geo.Dies()*d.geo.BlocksPerDie)
	for die, ds := range d.dies {
		for b := range ds.blocks {
			blk := &ds.blocks[b]
			bs := BlockSurvey{
				Addr:       BlockAddr{Die: die, Block: b},
				Bad:        blk.bad,
				EraseCount: blk.eraseCount,
				NextPage:   blk.nextPage,
			}
			for p := 0; p < d.geo.PagesPerBlock; p++ {
				if blk.states[p] != pageProgrammed {
					continue
				}
				bs.Pages = append(bs.Pages, PageSurvey{
					Addr: Addr{Die: die, Block: b, Page: p},
					Meta: blk.meta[p],
				})
			}
			out = append(out, bs)
		}
	}
	return out
}

// CorruptPage XORs n stored data bytes of a programmed page with pattern,
// starting at byte offset off.  It models silent media corruption for
// recovery tests and does not consume virtual time.
func (d *Device) CorruptPage(addr Addr, off, n int, pattern byte) error {
	if !d.geo.ValidAddr(addr) {
		return fmt.Errorf("%w: %v", ErrOutOfRange, addr)
	}
	if off < 0 || n < 0 || off+n > d.geo.PageSize {
		return fmt.Errorf("%w: corrupt range [%d,%d)", ErrOutOfRange, off, off+n)
	}
	ds := d.dies[addr.Die]
	blk := &ds.blocks[addr.Block]
	if blk.states[addr.Page] != pageProgrammed {
		return fmt.Errorf("%w: %v", ErrReadErased, addr)
	}
	if blk.data == nil || blk.data[addr.Page] == nil {
		return fmt.Errorf("%w: page %v holds no payload", ErrPageSize, addr)
	}
	data := blk.data[addr.Page]
	if ds.unshare(data) {
		// Another page holds the bytes too: this one gets a copy of its own.
		data = append(d.pageBuf()[:0], data...)
		blk.data[addr.Page] = data
	}
	for i := 0; i < n; i++ {
		data[off+i] ^= pattern
	}
	return nil
}
