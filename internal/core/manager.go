package core

import (
	"fmt"

	"noftl/internal/flash"
	"noftl/internal/iosched"
	"noftl/internal/metrics"
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

// dieAlloc is the per-die allocation state: free blocks, the open block
// receiving host writes and the open block receiving GC copybacks.
type dieAlloc struct {
	die        int
	regionID   RegionID
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

	regions     map[string]*Region
	regionsByID map[RegionID]*Region
	nextRegion  RegionID

	dieOwner []RegionID // region owning each die
	dies     []*dieAlloc

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
		dev:         dev,
		geo:         dev.Geometry(),
		opts:        opts,
		sched:       iosched.New(dev),
		regions:     make(map[string]*Region),
		regionsByID: make(map[RegionID]*Region),
		retained:    make(map[ppa]uint64),
		nextLPN:     1,
		nextRegion:  DefaultRegionID + 1,
		pends:       make([]hostWrite, 1),
		reqs:        make([]iosched.Request, 0, 1),
	}
	nDies := m.geo.Dies()
	m.dieOwner = make([]RegionID, nDies)
	m.dies = make([]*dieAlloc, nDies)
	for i := 0; i < nDies; i++ {
		da := &dieAlloc{die: i, regionID: DefaultRegionID, hostOpen: -1, gcOpen: -1, bgVictim: -1}
		da.blocks = make([]blockInfo, m.geo.BlocksPerDie)
		da.freeBlocks = make([]int, 0, m.geo.BlocksPerDie)
		for b := 0; b < m.geo.BlocksPerDie; b++ {
			da.blocks[b].reset(m.geo.PagesPerBlock)
			da.freeBlocks = append(da.freeBlocks, b)
		}
		m.dies[i] = da
	}

	m.objects = map[uint32]*objectIO{0: {name: UnattributedObject}}
	def := &Region{id: DefaultRegionID, name: DefaultRegionName}
	def.gc = opts.GC
	allDies := make([]int, nDies)
	for i := range allDies {
		allDies[i] = i
	}
	def.dies = allDies
	m.regions[def.name] = def
	m.regionsByID[def.id] = def
	m.recomputeCapacity(def)
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

// WriteMetrics writes the per-region counts and host latency histograms and
// the per-object command counts into mt.  A dropped region or object is no
// longer iterated, so it leaves the exposition.
func (m *Manager) WriteMetrics(mt *metrics.Text) {
	hostReads := mt.Counter("noftl_region_host_reads_total",
		"Logical host page reads served per region.", "region")
	hostWrites := mt.Counter("noftl_region_host_writes_total",
		"Logical host page writes placed per region.", "region")
	gcCopybacks := mt.Counter("noftl_region_gc_copybacks_total",
		"Valid pages relocated by garbage collection per region.", "region")
	gcErases := mt.Counter("noftl_region_gc_erases_total",
		"Victim blocks erased by garbage collection per region.", "region")
	gcStalls := mt.Counter("noftl_region_gc_stalls_total",
		"Foreground (blocking) collections at the low watermark per region.", "region")
	bgSteps := mt.Counter("noftl_region_bggc_steps_total",
		"Bounded background GC steps per region.", "region")
	wlMoves := mt.Counter("noftl_region_wear_moves_total",
		"Static wear-leveling block relocations per region.", "region")
	readLat := mt.Histogram("noftl_host_read_latency_seconds",
		"End-to-end virtual-time host read latency per region.", "region")
	writeLat := mt.Histogram("noftl_host_write_latency_seconds",
		"End-to-end virtual-time host write latency (including foreground GC) per region.", "region")
	for _, r := range m.regions {
		hostReads.Add(r.hostReads, r.name)
		hostWrites.Add(r.hostWrites, r.name)
		gcCopybacks.Add(r.gcCopybacks, r.name)
		gcErases.Add(r.gcErases, r.name)
		gcStalls.Add(r.gcStalls, r.name)
		bgSteps.Add(r.bgSteps, r.name)
		wlMoves.Add(r.wlMoves, r.name)
		readLat.Histogram(&r.readLat, r.name)
		writeLat.Histogram(&r.writeLat, r.name)
	}
	objects := mt.Counter("noftl_object_io_total",
		"Flash commands executed for each database object's pages: host reads, host writes of a new page (write_first) and of a mapped one (write_over), GC copybacks.",
		"object", "kind", "op")
	for _, o := range m.objects {
		for op, n := range o.ops {
			objects.Add(n, o.name, o.kind, objectOpNames[op])
		}
	}
}

// Options returns the effective options.
func (m *Manager) Options() Options { return m.opts }

// DieFreeBlocks returns the current free-block count of every die, indexed
// by die number.  The metrics plane exports it as a per-die gauge at scrape
// time.
func (m *Manager) DieFreeBlocks() []int {
	out := make([]int, len(m.dies))
	for i, da := range m.dies {
		out[i] = da.freeCount()
	}
	return out
}

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
	r, ok := m.regions[name]
	return r, ok
}

// RegionByID returns the region with the given id.
func (m *Manager) RegionByID(id RegionID) (*Region, bool) {
	r, ok := m.regionsByID[id]
	return r, ok
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
	if _, exists := m.regions[spec.Name]; exists {
		return nil, fmt.Errorf("%w: %q", ErrRegionExists, spec.Name)
	}
	def := m.regionsByID[DefaultRegionID]

	var chosen []int
	if len(spec.Dies) > 0 {
		for _, d := range spec.Dies {
			if d < 0 || d >= m.geo.Dies() {
				return nil, fmt.Errorf("%w: die %d out of range", ErrInvalidSpec, d)
			}
			if m.dieOwner[d] != DefaultRegionID {
				return nil, fmt.Errorf("%w: die %d already belongs to region %d", ErrNoDiesAvailable, d, m.dieOwner[d])
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

	r := &Region{id: m.nextRegion, name: spec.Name, spec: spec}
	r.spec.Dies, r.spec.GC = nil, nil
	r.gc = m.opts.GC
	if spec.GC != nil {
		r.gc = spec.GC.withDefaults()
	}
	m.nextRegion++
	r.dies = sortedCopy(chosen)
	if spec.MaxSizeBytes > 0 {
		r.maxSizePages = spec.MaxSizeBytes / int64(m.geo.PageSize)
	}
	for _, d := range chosen {
		m.dieOwner[d] = r.id
		m.dies[d].regionID = r.id
	}
	// Remove the chosen dies from the default region.
	def.dies = removeDies(def.dies, chosen)
	m.recomputeCapacity(def)
	m.recomputeCapacity(r)

	m.regions[r.name] = r
	m.regionsByID[r.id] = r
	return r, nil
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
// over at most maxChannels channels (0 = unlimited).
func (m *Manager) selectDies(n, maxChannels int) []int {
	def := m.regionsByID[DefaultRegionID]
	usedChannels := make(map[int]bool)
	var chosen []int
	// First pass: favour spreading across channels round-robin so a region
	// gets the full channel parallelism its MAX_CHANNELS allows.
	for len(chosen) < n {
		progress := false
		for _, d := range def.dies {
			if len(chosen) >= n {
				break
			}
			if containsInt(chosen, d) || !m.dieEmpty(d) {
				continue
			}
			ch := m.geo.ChannelOfDie(d)
			if maxChannels > 0 && !usedChannels[ch] && len(usedChannels) >= maxChannels {
				continue
			}
			if usedChannels[ch] && !allChannelsCovered(usedChannels, maxChannels, m.geo.Channels) {
				// Prefer a die on a not-yet-used channel if one is still
				// available in this pass.
				if m.emptyDieOnFreshChannel(def.dies, chosen, usedChannels, maxChannels) {
					continue
				}
			}
			chosen = append(chosen, d)
			usedChannels[ch] = true
			progress = true
		}
		if !progress {
			break
		}
	}
	return chosen
}

// emptyDieOnFreshChannel reports whether an empty, unchosen die exists on a
// channel that has not been used yet and would still be admissible.
func (m *Manager) emptyDieOnFreshChannel(candidates, chosen []int, used map[int]bool, maxChannels int) bool {
	if maxChannels > 0 && len(used) >= maxChannels {
		return false
	}
	for _, d := range candidates {
		if containsInt(chosen, d) || !m.dieEmpty(d) {
			continue
		}
		if !used[m.geo.ChannelOfDie(d)] {
			return true
		}
	}
	return false
}

func allChannelsCovered(used map[int]bool, maxChannels, totalChannels int) bool {
	limit := totalChannels
	if maxChannels > 0 && maxChannels < limit {
		limit = maxChannels
	}
	return len(used) >= limit
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func removeDies(from []int, remove []int) []int {
	out := from[:0]
	for _, d := range from {
		if !containsInt(remove, d) {
			out = append(out, d)
		}
	}
	return out
}

// DropRegion removes an empty region and returns its dies to the default
// region, which takes over what the region counted: the regions still sum to
// everything the space manager did, as the objects do.
func (m *Manager) DropRegion(name string) error {
	r, ok := m.regions[name]
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
	def := m.regionsByID[DefaultRegionID]
	for _, d := range r.dies {
		m.dieOwner[d] = DefaultRegionID
		m.dies[d].regionID = DefaultRegionID
	}
	def.dies = sortedCopy(append(def.dies, r.dies...))
	m.recomputeCapacity(def)
	def.absorb(r)
	delete(m.regions, name)
	delete(m.regionsByID, r.id)
	return nil
}

// GrowRegion moves n additional empty dies from the default region into the
// named region (the paper notes that the die set of a region is dynamic).
func (m *Manager) GrowRegion(name string, n int) error {
	r, ok := m.regions[name]
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
	def := m.regionsByID[DefaultRegionID]
	for _, d := range chosen {
		m.dieOwner[d] = r.id
		m.dies[d].regionID = r.id
	}
	def.dies = removeDies(def.dies, chosen)
	r.dies = sortedCopy(append(r.dies, chosen...))
	m.recomputeCapacity(def)
	m.recomputeCapacity(r)
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
	if m.opts.Mode == PlacementTraditional {
		return m.regionsByID[DefaultRegionID]
	}
	if r, ok := m.regionsByID[h.Region]; ok {
		return r
	}
	return m.regionsByID[DefaultRegionID]
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
	if r := m.regionsByID[m.dieOwner[e.die]]; r.validPages > 0 {
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
