package core

import (
	"fmt"
	"slices"

	"noftl/internal/flash"
	"noftl/internal/iosched"
	"noftl/internal/obs"
	"noftl/internal/sim"
)

// Options configure the space manager.
type Options struct {
	// Mode selects between region-aware placement and the traditional
	// (uniform, hint-ignoring) placement baseline.
	Mode PlacementMode
	// OverprovisionPct is the fraction of each region's raw capacity that is
	// withheld from the logical capacity so that garbage collection always
	// finds reclaimable blocks.  Default 0.12.
	OverprovisionPct float64
	// DisableBackgroundGC reverts to purely foreground (synchronous)
	// collection: all GC work is charged inline to the host write that
	// trips the low watermark, as in the pre-background-GC behaviour.
	DisableBackgroundGC bool
	// GC is the garbage-collection policy of every region created without
	// one (RegionSpec.GC), the default region included.
	GC GCPolicy
}

// The per-die free-block thresholds of garbage collection and the trigger of
// static wear leveling.
const (
	// gcLowWater is the number of free blocks at or below which allocation
	// runs a blocking foreground collection (the correctness backstop).
	gcLowWater = 3
	// gcHighWater is the number of free blocks at or below which background
	// GC runs opportunistic bounded steps after host writes (see bggc.go).
	gcHighWater = 6
	// gcReserve is the number of free blocks reserved for garbage collection
	// itself; host writes never consume them.
	gcReserve = 1
	// wearLevelDelta is the difference between the most- and least-worn block
	// of a die above which static wear leveling moves the coldest block
	// during GC.
	wearLevelDelta = 64
)

// DefaultOptions returns the defaults described on each field.
func DefaultOptions() Options {
	return Options{
		Mode:             PlacementRegions,
		OverprovisionPct: 0.12,
		GC:               DefaultGCPolicy(),
	}
}

func (o Options) withDefaults() Options {
	if o.OverprovisionPct <= 0 || o.OverprovisionPct >= 0.9 {
		o.OverprovisionPct = 0.12
	}
	o.GC = o.GC.withDefaults()
	return o
}

// block lifecycle states tracked by the manager (the device itself only knows
// erased/programmed pages).
type blockState uint8

const (
	blkFree    blockState = iota // fully erased, on the free list
	blkOpen                      // currently receiving writes (host or GC)
	blkClosed                    // fully programmed, eligible as a GC victim
	blkRetired                   // worn out (erase failed); never used again
)

// blockInfo is the manager-side bookkeeping for one erase block.
type blockInfo struct {
	state      blockState
	validCount int
	nextPage   int
	eraseCount int64
	lastWrite  uint64 // manager write sequence when the block last changed
	lpns       []LPN
	valid      []bool
}

func (b *blockInfo) reset(pagesPerBlock int) {
	b.state = blkFree
	b.validCount = 0
	b.nextPage = 0
	b.lastWrite = 0
	if b.lpns == nil {
		b.lpns = make([]LPN, pagesPerBlock)
		b.valid = make([]bool, pagesPerBlock)
		return
	}
	for i := range b.valid {
		b.valid[i] = false
		b.lpns[i] = 0
	}
}

// dieAlloc is the per-die allocation state: the region that owns the die, its
// free blocks, the open block receiving host writes and the open block
// receiving GC copybacks.
type dieAlloc struct {
	die        int
	region     *Region
	blocks     []blockInfo
	freeBlocks []int    // indexes of blocks in state blkFree
	hostOpen   int      // block index, -1 if none
	gcOpen     int      // block index, -1 if none
	bgVictim   int      // victim being incrementally collected in background, -1 if none
	written    bool     // the write batch in flight landed a page here; cleared by its background GC step
	stall      sim.Time // end of the foreground collection the write batch in flight ran here; cleared with it
}

func (da *dieAlloc) freeCount() int { return len(da.freeBlocks) }

// mapEntry records in 16 bytes where a logical page lives (zero: unmapped).
// Its region is its die's owner: a die changes owner only while it holds no
// valid page.  seq is the write sequence of the version and entryLog marks a
// WAL page; together they decide whether it outlives its overwrite (retain.go).
type mapEntry struct {
	seq   uint64
	block uint32 // with entryMapped and entryLog in its top bits
	die   uint16
	page  uint16
}

// The flags of mapEntry.block (flash.Geometry bounds blocks per die to 2^30).
const (
	entryMapped = 1 << 31
	entryLog    = 1 << 30
)

func newMapEntry(addr ppa, log bool, seq uint64) mapEntry {
	e := mapEntry{seq, uint32(addr.Block) | entryMapped, uint16(addr.Die), uint16(addr.Page)}
	if log {
		e.block |= entryLog
	}
	return e
}

// addr returns the physical page the entry maps to.
func (e *mapEntry) addr() ppa {
	return ppa{Die: int(e.die), Block: int(e.block &^ (entryMapped | entryLog)), Page: int(e.page)}
}

func (e *mapEntry) mapped() bool { return e.block&entryMapped != 0 }
func (e *mapEntry) log() bool    { return e.block&entryLog != 0 }

// lookup returns lpn's entry and whether the page is mapped.
func (m *Manager) lookup(lpn LPN) (mapEntry, bool) {
	if e := m.mapping.At(lpn); e != nil && e.mapped() {
		return *e, true
	}
	return mapEntry{}, false
}

// Manager is the NoFTL space manager: it owns the native flash device,
// manages regions, performs logical-to-physical address translation with
// out-of-place updates, and runs garbage collection and wear leveling per
// region using DBMS-side knowledge.  It is not safe for concurrent use.
type Manager struct {
	dev   *flash.Device
	geo   flash.Geometry
	opts  Options
	sched *iosched.Scheduler

	regions []*Region // by RegionID; nil once dropped
	dies    []*dieAlloc

	mapping LPNTable[mapEntry]
	nextLPN LPN
	seq     uint64 // monotonically increasing write sequence for OOB metadata

	// Checkpoint retention (retain.go): the superseded physical pages that
	// still hold the image of a checkpoint, by the epoch of the Snapshot they
	// serve.  ckptSeq is the write sequence at the newest Snapshot; zero (no
	// Snapshot was ever taken) retains nothing.
	retained   map[ppa]uint64
	ckptSeq    uint64
	epoch      uint64
	overBudget bool // some region's retained pages exceed its budget

	// Scratch of WritePages, reused across calls so that a write
	// batch (of one page or thousands) allocates nothing per call; it starts
	// sized for a one-page write and grows to the largest batch seen.  A
	// collection that runs inside WritePages has scratch of its own.
	pends []hostWrite
	reqs  []iosched.Request
	done  []iosched.Completion
	gc    struct {
		moves []gcMove
		reqs  []iosched.Request
		done  []iosched.Completion
	}

	tracer *obs.Tracer // nil when tracing is off

	// Per-object demand (objects.go), by object id.
	objects map[uint32]*objectIO
}

// NewManager creates a space manager over dev.  Initially a single region
// named DEFAULT owns every die, which is exactly the traditional placement
// configuration; CreateRegion carves further regions out of the default one.
func NewManager(dev *flash.Device, opts Options) *Manager {
	opts = opts.withDefaults()
	m := &Manager{
		dev:      dev,
		geo:      dev.Geometry(),
		opts:     opts,
		sched:    iosched.New(dev),
		retained: make(map[ppa]uint64),
		nextLPN:  1,
		pends:    make([]hostWrite, 1),
		reqs:     make([]iosched.Request, 0, 1),
	}
	def := &Region{id: DefaultRegionID, name: DefaultRegionName, gc: opts.GC}
	m.regions = []*Region{def}
	nDies := m.geo.Dies()
	m.dies = make([]*dieAlloc, nDies)
	for i := 0; i < nDies; i++ {
		da := &dieAlloc{die: i, region: def, hostOpen: -1, gcOpen: -1, bgVictim: -1}
		da.blocks = make([]blockInfo, m.geo.BlocksPerDie)
		da.freeBlocks = make([]int, 0, m.geo.BlocksPerDie)
		for b := 0; b < m.geo.BlocksPerDie; b++ {
			da.blocks[b].reset(m.geo.PagesPerBlock)
			da.freeBlocks = append(da.freeBlocks, b)
		}
		m.dies[i] = da
		def.dies = append(def.dies, i)
	}
	m.recomputeCapacity(def)
	m.objects = map[uint32]*objectIO{0: {name: UnattributedObject}}
	return m
}

// Scheduler returns the I/O scheduler every flash command of this manager is
// routed through.
func (m *Manager) Scheduler() *iosched.Scheduler { return m.sched }

// AttachObs sends the host read/write, GC and wear-leveling trace events of
// the space manager and its I/O scheduler to tr (nil = tracing off).
func (m *Manager) AttachObs(tr *obs.Tracer) {
	m.tracer = tr
	m.sched.AttachObs(tr)
}

// Options returns the effective options.
func (m *Manager) Options() Options { return m.opts }

// recomputeCapacity updates the exported logical capacity of a region from
// its die set, over-provisioning and MAX_SIZE limit, and with it the share of
// the over-provisioned spare that retained checkpoint versions may occupy.
func (m *Manager) recomputeCapacity(r *Region) {
	raw := int64(len(r.dies)) * int64(m.geo.PagesPerDie())
	r.physPages = int64(float64(raw) * (1 - m.opts.OverprovisionPct))
	r.retainBudget = (raw - r.physPages) / retainedSpareShare
	r.capacityPages = r.physPages
	if r.maxSizePages > 0 && r.maxSizePages < r.capacityPages {
		r.capacityPages = r.maxSizePages
	}
}

// Region returns the region with the given name.
func (m *Manager) Region(name string) (*Region, bool) {
	for _, r := range m.regions {
		if r != nil && r.name == name {
			return r, true
		}
	}
	return nil, false
}

// RegionByID returns the region with the given id.
func (m *Manager) RegionByID(id RegionID) (*Region, bool) {
	if int(id) < len(m.regions) && m.regions[id] != nil {
		return m.regions[id], true
	}
	return nil, false
}

// CreateRegion carves a new region out of the default region according to
// spec.  Only dies that currently hold no valid data can move to the new
// region, so regions are normally created right after the device is opened,
// before objects are loaded (online region re-organisation with data
// migration is future work, see ROADMAP.md, "Parked").
func (m *Manager) CreateRegion(spec RegionSpec) (*Region, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if _, exists := m.Region(spec.Name); exists {
		return nil, fmt.Errorf("%w: %q", ErrRegionExists, spec.Name)
	}

	var chosen []int
	if len(spec.Dies) > 0 {
		for _, d := range spec.Dies {
			if d < 0 || d >= m.geo.Dies() {
				return nil, fmt.Errorf("%w: die %d out of range", ErrInvalidSpec, d)
			}
			if owner := m.dies[d].region; owner.id != DefaultRegionID {
				return nil, fmt.Errorf("%w: die %d already belongs to region %d", ErrNoDiesAvailable, d, owner.id)
			}
			if !m.dieEmpty(d) {
				return nil, fmt.Errorf("%w: die %d holds valid data", ErrNoDiesAvailable, d)
			}
			chosen = append(chosen, d)
		}
	} else {
		chosen = m.selectDies(spec.MaxChips, spec.MaxChannels)
		if len(chosen) < spec.MaxChips {
			return nil, fmt.Errorf("%w: requested %d dies, only %d empty dies in the default region",
				ErrNoDiesAvailable, spec.MaxChips, len(chosen))
		}
	}

	r := &Region{id: RegionID(len(m.regions)), name: spec.Name, spec: spec, gc: m.opts.GC}
	r.spec.Dies, r.spec.GC = nil, nil
	if spec.GC != nil {
		r.gc = spec.GC.withDefaults()
	}
	if spec.MaxSizeBytes > 0 {
		r.maxSizePages = spec.MaxSizeBytes / int64(m.geo.PageSize)
	}
	m.regions = append(m.regions, r)
	m.moveDies(r, chosen)
	return r, nil
}

// moveDies hands dies, all of one region (its own list too: to copies them
// first), to region to, keeping both lists sorted and both capacities current.
func (m *Manager) moveDies(to *Region, dies []int) {
	from := m.dies[dies[0]].region
	to.dies = append(to.dies, dies...)
	slices.Sort(to.dies)
	for _, d := range dies {
		m.dies[d].region = to
	}
	from.dies = slices.DeleteFunc(from.dies, func(d int) bool { return m.dies[d].region == to })
	m.recomputeCapacity(from)
	m.recomputeCapacity(to)
}

// dieEmpty reports whether a die holds no valid pages.
func (m *Manager) dieEmpty(die int) bool {
	da := m.dies[die]
	for b := range da.blocks {
		if da.blocks[b].validCount > 0 {
			return false
		}
	}
	return true
}

// selectDies picks up to n empty dies from the default region, spreading them
// over at most maxChannels channels (0 = unlimited) so that a region gets the
// channel parallelism its MAX_CHANNELS allows.  In die order it takes the
// first empty die of each channel it may use; then the other empty dies of
// those channels, starting after the die that brought in the last channel and
// wrapping round.
func (m *Manager) selectDies(n, maxChannels int) []int {
	def := m.regions[DefaultRegionID]
	used := make([]bool, m.geo.Channels)
	var chosen []int
	last := -1 // index in def.dies of the die that brought in the last channel
	for i, d := range def.dies {
		ch := m.geo.ChannelOfDie(d)
		if len(chosen) < n && (maxChannels == 0 || len(chosen) < maxChannels) && !used[ch] && m.dieEmpty(d) {
			used[ch], last = true, i
			chosen = append(chosen, d)
		}
	}
	for k := 1; k <= len(def.dies) && len(chosen) < n; k++ {
		d := def.dies[(last+k)%len(def.dies)]
		if used[m.geo.ChannelOfDie(d)] && !slices.Contains(chosen, d) && m.dieEmpty(d) {
			chosen = append(chosen, d)
		}
	}
	return chosen
}

// DropRegion removes an empty region and returns its dies to the default
// region, which takes over what the region counted: the regions still sum to
// everything the space manager did, as the objects do.
func (m *Manager) DropRegion(name string) error {
	r, ok := m.Region(name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownRegion, name)
	}
	if r.id == DefaultRegionID {
		return ErrDefaultRegion
	}
	if r.validPages > 0 || r.retainedPages > 0 {
		return fmt.Errorf("%w: %q has %d valid pages and %d retained for the last checkpoint",
			ErrRegionNotEmpty, name, r.validPages, r.retainedPages)
	}
	def := m.regions[DefaultRegionID]
	m.moveDies(def, r.dies)
	// DEFAULT takes the dropped region's counts with its dies.
	def.counts.add(r.counts)
	def.readLat.Merge(&r.readLat)
	def.writeLat.Merge(&r.writeLat)
	m.regions[r.id] = nil
	return nil
}

// GrowRegion moves n additional empty dies from the default region into the
// named region (the paper notes that the die set of a region is dynamic).
func (m *Manager) GrowRegion(name string, n int) error {
	r, ok := m.Region(name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownRegion, name)
	}
	if r.id == DefaultRegionID {
		return fmt.Errorf("%w: cannot grow the default region explicitly", ErrInvalidSpec)
	}
	if n < 1 {
		return fmt.Errorf("%w: region %q cannot grow by %d dies", ErrInvalidSpec, name, n)
	}
	chosen := m.selectDies(n, 0)
	if len(chosen) < n {
		return fmt.Errorf("%w: requested %d dies, found %d", ErrNoDiesAvailable, n, len(chosen))
	}
	m.moveDies(r, chosen)
	return nil
}

// AllocateLPNs reserves n consecutive logical page numbers and returns the
// first.  The storage layer uses this to number extents.
func (m *Manager) AllocateLPNs(n int) LPN {
	start := m.nextLPN
	m.nextLPN += LPN(n)
	return start
}

// resolveRegion maps a write hint to the target region under the current
// placement mode.
func (m *Manager) resolveRegion(h Hint) *Region {
	if r, ok := m.RegionByID(h.Region); ok && m.opts.Mode != PlacementTraditional {
		return r
	}
	return m.regions[DefaultRegionID]
}

// Locate returns the physical address a logical page currently maps to
// (diagnostic/test helper).
func (m *Manager) Locate(lpn LPN) (flash.Addr, bool) {
	e, ok := m.lookup(lpn)
	return e.addr(), ok
}

// invalidate marks the physical page at a as no longer holding current data.
func (m *Manager) invalidate(a ppa) {
	blk := &m.dies[a.Die].blocks[a.Block]
	if blk.valid[a.Page] {
		blk.valid[a.Page] = false
		if blk.validCount > 0 {
			blk.validCount--
		}
		// Invalidations refresh the block's age: cost-benefit victim
		// selection treats a block whose contents are still churning as hot.
		blk.lastWrite = m.seq
	}
}

// TrimPage drops the logical page entirely: its physical copy is superseded
// (invalidated, or retained while a checkpoint still needs it) and the logical
// page becomes unmapped (used when objects are dropped or truncated).
func (m *Manager) TrimPage(lpn LPN) error {
	e, ok := m.lookup(lpn)
	if !ok {
		return fmt.Errorf("%w: lpn %d", ErrUnmappedPage, lpn)
	}
	m.supersede(e)
	*m.mapping.At(lpn) = mapEntry{}
	if r := m.dies[e.die].region; r.validPages > 0 {
		r.validPages--
	}
	return nil
}

// slotRef identifies the page slot handed out by allocateSlot.
type slotRef struct {
	block int
	page  int
}

// allocateSlot picks the die (round-robin within the region) and the next
// programmable page of that die's open block, opening a new block — and
// garbage-collecting first if necessary — when needed.  It returns the die
// allocation state, the slot, and the virtual time after any synchronous GC
// work; the state is nil when no die of the region yields one.
func (m *Manager) allocateSlot(now sim.Time, r *Region) (*dieAlloc, slotRef, sim.Time) {
	// Round-robin over the region's dies, skipping dies that cannot yield a
	// slot even after GC.
	for attempt := 0; attempt < len(r.dies); attempt++ {
		die := r.dies[r.rr%len(r.dies)]
		r.rr++
		da := m.dies[die]

		// Make sure the die has an open host block.
		if da.hostOpen < 0 || da.blocks[da.hostOpen].nextPage >= m.geo.PagesPerBlock {
			var gcTime sim.Time
			var ok bool
			gcTime, ok = m.openHostBlock(now, r, da)
			if !ok {
				continue
			}
			now = gcTime
		}
		blk := &da.blocks[da.hostOpen]
		slot := slotRef{block: da.hostOpen, page: blk.nextPage}
		blk.nextPage++
		return da, slot, now
	}
	return nil, slotRef{}, now
}

// errRegionFull is the error of a write the region cannot place.  Retained
// checkpoint versions occupy its spare blocks, so when there are any the error
// names them: the next checkpoint gives that space back.
func (m *Manager) errRegionFull(r *Region) error {
	if r.retainedPages > 0 {
		return fmt.Errorf("%w: %q (%d of %d pages valid, %d pages retained for the last checkpoint)",
			ErrRegionFull, r.name, r.validPages, r.capacityPages, r.retainedPages)
	}
	return fmt.Errorf("%w: %q (%d pages)", ErrRegionFull, r.name, r.capacityPages)
}

// openHostBlock ensures da has an open block for host writes, running GC when
// the free-block count is at or below the low-water mark.  It returns the
// virtual time after any GC work and whether a block could be opened.
func (m *Manager) openHostBlock(now sim.Time, r *Region, da *dieAlloc) (sim.Time, bool) {
	if da.freeCount() <= gcLowWater {
		now = m.collectDie(now, r, da)
	}
	// Under a policy without hot/cold separation the collection itself may
	// have (re)opened the host block to hold relocated pages; opening
	// another one here would orphan it (an open block no victim scan sees)
	// and leak its space.
	if da.hostOpen >= 0 && da.blocks[da.hostOpen].nextPage < m.geo.PagesPerBlock {
		return now, true
	}
	// Host writes must leave the GC reserve untouched.
	if da.freeCount() <= gcReserve {
		return now, false
	}
	idx := m.popFreeBlock(da)
	if idx < 0 {
		return now, false
	}
	da.blocks[idx].state = blkOpen
	da.hostOpen = idx
	return now, true
}

// popFreeBlock removes and returns the least-worn free block of the die, or
// -1 when none is free.  Preferring the least-worn block is the dynamic part
// of wear leveling.
func (m *Manager) popFreeBlock(da *dieAlloc) int {
	if len(da.freeBlocks) == 0 {
		return -1
	}
	best := 0
	for i, b := range da.freeBlocks {
		if da.blocks[b].eraseCount < da.blocks[da.freeBlocks[best]].eraseCount {
			best = i
		}
	}
	idx := da.freeBlocks[best]
	da.freeBlocks = append(da.freeBlocks[:best], da.freeBlocks[best+1:]...)
	return idx
}
