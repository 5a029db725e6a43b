package flash

import (
	"fmt"
	"strconv"
	"time"

	"noftl/internal/metrics"
	"noftl/internal/sim"
)

// Config configures a simulated native flash device.
type Config struct {
	// Geometry is the physical layout of the device.
	Geometry Geometry
	// Timing holds the NAND and channel latencies.
	Timing Timing
	// EraseEndurance is the number of program/erase cycles after which a
	// block is marked bad.  Zero means unlimited endurance.
	EraseEndurance int64
}

// DefaultConfig returns a small device suitable for tests and examples:
// 4 channels x 2 dies (8 dies), 128 blocks per die, 64 pages per block,
// 4 KiB pages (256 MiB raw), SLC-like timing.
func DefaultConfig() Config {
	return Config{
		Geometry: Geometry{
			Channels:       4,
			DiesPerChannel: 2,
			PlanesPerDie:   2,
			BlocksPerDie:   128,
			PagesPerBlock:  64,
			PageSize:       4096,
		},
		Timing:         DefaultTiming(),
		EraseEndurance: 0,
	}
}

type pageState uint8

const (
	pageErased pageState = iota
	pageProgrammed
)

// blockState is the per-erase-block bookkeeping of the device model.
type blockState struct {
	eraseCount int64
	bad        bool
	nextPage   int // next page to program under the sequential constraint
	states     []pageState
	meta       []PageMeta
	data       [][]byte // lazily allocated at the block's first payload
}

// dieState groups the blocks of one die.
type dieState struct {
	blocks []blockState

	// Operation counts.  Reads, programs and erases are this die's children
	// of the noftl_device_* families (AttachObs); device totals are sums
	// over the dies.  Copybacks have no family and stay a plain count.
	reads     *metrics.Counter
	programs  *metrics.Counter
	erases    *metrics.Counter
	copybacks int64

	// shared counts, by its first byte, the pages beyond the first that hold
	// a payload buffer: a page's bytes do not change until an erase, so a
	// copyback (on one die) gives its destination the source's buffer.
	shared map[*byte]int
}

// unshare drops one page's hold on buf and reports whether another page
// still holds it.
func (ds *dieState) unshare(buf []byte) bool {
	n := ds.shared[&buf[0]]
	if n == 1 {
		delete(ds.shared, &buf[0])
	} else if n > 1 {
		ds.shared[&buf[0]] = n - 1
	}
	return n > 0
}

// Device is a simulated native flash device.  It is not safe for concurrent
// use; contention on dies and channels is modelled in virtual time.
type Device struct {
	cfg     Config
	geo     Geometry
	dies    []*dieState
	dieRes  []*sim.Resource
	chanRes []*sim.Resource

	// fault injection (see fault.go); nil when no plan is armed
	fault *faultState

	// Payload buffers no page holds any more, waiting for the next program.
	// Only a program allocates one, and only when the list is empty, so the
	// list never holds more than the peak number of buffers in use less the
	// current number; every buffer in use is held by a programmed page, so the
	// device's capacity bounds that peak, and in steady state none allocates.
	freeBufs [][]byte
}

// pageBuf returns a PageSize buffer with unspecified contents for a program
// that overwrites all of it.
func (d *Device) pageBuf() []byte {
	if n := len(d.freeBufs); n > 0 {
		buf := d.freeBufs[n-1]
		d.freeBufs = d.freeBufs[:n-1]
		return buf
	}
	return make([]byte, d.geo.PageSize)
}

// recycle takes over the payload buffers of a block being erased that no
// other page holds.
func (d *Device) recycle(ds *dieState, bufs [][]byte) {
	for i, buf := range bufs {
		if buf != nil && !ds.unshare(buf) {
			d.freeBufs = append(d.freeBufs, buf)
		}
		bufs[i] = nil
	}
}

// NewDevice creates a device with the given configuration.
func NewDevice(cfg Config) (*Device, error) {
	if err := cfg.Geometry.Validate(); err != nil {
		return nil, err
	}
	d := &Device{
		cfg: cfg,
		geo: cfg.Geometry,
	}

	nDies := d.geo.Dies()
	d.dies = make([]*dieState, nDies)
	d.dieRes = make([]*sim.Resource, nDies)
	for i := 0; i < nDies; i++ {
		ds := &dieState{blocks: make([]blockState, d.geo.BlocksPerDie), shared: make(map[*byte]int)}
		for b := range ds.blocks {
			ds.blocks[b].states = make([]pageState, d.geo.PagesPerBlock)
			ds.blocks[b].meta = make([]PageMeta, d.geo.PagesPerBlock)
		}
		d.dies[i] = ds
		d.dieRes[i] = new(sim.Resource)
	}
	d.chanRes = make([]*sim.Resource, d.geo.Channels)
	for c := range d.chanRes {
		d.chanRes[c] = new(sim.Resource)
	}
	d.AttachObs(metrics.NewRegistry())
	return d, nil
}

// AttachObs binds the device's counters to reg: the per-die children of the
// noftl_device_* families.  A new device counts on a private registry; the
// database above it re-binds them to its shared one so they appear in its
// /metrics.  Call before serving traffic: counts taken before the call stay
// behind on the old registry.
func (d *Device) AttachObs(reg *metrics.Registry) {
	reads := reg.Counter("noftl_device_reads_total", "Physical page reads on the flash device.", "die")
	programs := reg.Counter("noftl_device_programs_total", "Physical page programs on the flash device.", "die")
	erases := reg.Counter("noftl_device_erases_total", "Physical block erases on the flash device.", "die")
	for i, ds := range d.dies {
		die := strconv.Itoa(i)
		ds.reads, ds.programs, ds.erases = reads.With(die), programs.With(die), erases.With(die)
	}
}

// Geometry returns the device geometry.
func (d *Device) Geometry() Geometry { return d.geo }

// Timing returns the device latency parameters.
func (d *Device) Timing() Timing { return d.cfg.Timing }

// channel returns the channel resource serving a die.
func (d *Device) channel(die int) *sim.Resource {
	return d.chanRes[d.geo.ChannelOfDie(die)]
}

// ReadPage reads the page at addr.  If buf is non-nil it must be PageSize
// bytes long and receives the page data; otherwise a fresh buffer is
// allocated.  A page programmed without a payload leaves buf as it is.  It
// returns the page metadata and the virtual completion time.
func (d *Device) ReadPage(now sim.Time, addr Addr, buf []byte) ([]byte, PageMeta, sim.Time, error) {
	if !d.geo.ValidAddr(addr) {
		return nil, PageMeta{}, now, fmt.Errorf("%w: %v", ErrOutOfRange, addr)
	}
	if fd := d.faultOp(now, opRead); fd.crash {
		return nil, PageMeta{}, now, ErrCrashed
	}
	ds := d.dies[addr.Die]
	blk := &ds.blocks[addr.Block]
	if blk.bad {
		return nil, PageMeta{}, now, fmt.Errorf("%w: %v", ErrBadBlock, addr.BlockAddr())
	}
	if blk.states[addr.Page] != pageProgrammed {
		return nil, PageMeta{}, now, fmt.Errorf("%w: %v", ErrReadErased, addr)
	}
	meta := blk.meta[addr.Page]
	if blk.data != nil && blk.data[addr.Page] != nil {
		if buf == nil {
			buf = make([]byte, d.geo.PageSize)
		}
		copy(buf, blk.data[addr.Page])
	}
	ds.reads.Inc()

	_, sensed := d.dieRes[addr.Die].Acquire(now, d.cfg.Timing.ReadPage)
	_, done := d.channel(addr.Die).Acquire(sensed, d.cfg.Timing.Transfer)
	return buf, meta, done, nil
}

// ProgramPage writes data and metadata to the erased page at addr.  The
// payload must be exactly PageSize bytes, or nil for a page that carries its
// metadata only.  Programming a non-erased page or violating the
// sequential-programming constraint fails.
func (d *Device) ProgramPage(now sim.Time, addr Addr, data []byte, meta PageMeta) (sim.Time, error) {
	if !d.geo.ValidAddr(addr) {
		return now, fmt.Errorf("%w: %v", ErrOutOfRange, addr)
	}
	if data != nil && len(data) != d.geo.PageSize {
		return now, fmt.Errorf("%w: got %d bytes, want %d", ErrPageSize, len(data), d.geo.PageSize)
	}
	if fd := d.faultOp(now, opProgram); fd.crash {
		if fd.tornProgram {
			d.programTorn(addr, data, meta, fd.tornBytes)
		}
		return now, ErrCrashed
	} else if fd.failProgram {
		return now, fmt.Errorf("%w: %v", ErrProgramFault, addr)
	}
	ds := d.dies[addr.Die]
	blk := &ds.blocks[addr.Block]
	if blk.bad {
		return now, fmt.Errorf("%w: %v", ErrBadBlock, addr.BlockAddr())
	}
	if blk.states[addr.Page] != pageErased {
		return now, fmt.Errorf("%w: %v", ErrNotErased, addr)
	}
	if addr.Page != blk.nextPage {
		return now, fmt.Errorf("%w: %v (next programmable page is %d)", ErrProgramOrder, addr, blk.nextPage)
	}
	blk.states[addr.Page] = pageProgrammed
	blk.meta[addr.Page] = meta
	blk.nextPage++
	if data != nil {
		if blk.data == nil {
			blk.data = make([][]byte, d.geo.PagesPerBlock)
		}
		cp := d.pageBuf()
		copy(cp, data)
		blk.data[addr.Page] = cp
	}
	ds.programs.Inc()

	_, transferred := d.channel(addr.Die).Acquire(now, d.cfg.Timing.Transfer)
	_, done := d.dieRes[addr.Die].Acquire(transferred, d.cfg.Timing.ProgramPage)
	return done, nil
}

// EraseBlock erases a block, returning all of its pages to the erased state.
// When the block reaches the configured endurance limit it is marked bad and
// subsequent operations on it fail with ErrBadBlock.
func (d *Device) EraseBlock(now sim.Time, b BlockAddr) (sim.Time, error) {
	if !d.geo.ValidBlock(b) {
		return now, fmt.Errorf("%w: %v", ErrOutOfRange, b)
	}
	if fd := d.faultOp(now, opErase); fd.crash {
		return now, ErrCrashed
	} else if fd.failErase {
		ds := d.dies[b.Die]
		ds.blocks[b.Block].bad = true
		return now, fmt.Errorf("%w: %v", ErrEraseFault, b)
	}
	ds := d.dies[b.Die]
	blk := &ds.blocks[b.Block]
	if blk.bad {
		return now, fmt.Errorf("%w: %v", ErrBadBlock, b)
	}
	for i := range blk.states {
		blk.states[i] = pageErased
		blk.meta[i] = PageMeta{}
	}
	d.recycle(ds, blk.data)
	blk.nextPage = 0
	blk.eraseCount++
	if d.cfg.EraseEndurance > 0 && blk.eraseCount >= d.cfg.EraseEndurance {
		blk.bad = true
	}
	ds.erases.Inc()

	_, done := d.dieRes[b.Die].Acquire(now, d.cfg.Timing.EraseBlock)
	return done, nil
}

// Copyback copies a programmed page to an erased page on the same die
// without transferring the data over the channel (the NAND-internal copyback
// command used by garbage collection).  The destination inherits the source
// metadata and the method returns it so the caller can update its mapping.
// It shares the source's stored bytes instead of copying them.
func (d *Device) Copyback(now sim.Time, src, dst Addr) (PageMeta, sim.Time, error) {
	if !d.geo.ValidAddr(src) || !d.geo.ValidAddr(dst) {
		return PageMeta{}, now, fmt.Errorf("%w: %v -> %v", ErrOutOfRange, src, dst)
	}
	if src.Die != dst.Die {
		return PageMeta{}, now, fmt.Errorf("%w: %v -> %v", ErrCopybackCrossDie, src, dst)
	}
	if fd := d.faultOp(now, opCopyback); fd.crash {
		return PageMeta{}, now, ErrCrashed
	} else if fd.failProgram {
		return PageMeta{}, now, fmt.Errorf("%w: copyback %v -> %v", ErrProgramFault, src, dst)
	}
	ds := d.dies[src.Die]
	sblk := &ds.blocks[src.Block]
	dblk := &ds.blocks[dst.Block]
	if sblk.bad || dblk.bad {
		return PageMeta{}, now, fmt.Errorf("%w: copyback %v -> %v", ErrBadBlock, src, dst)
	}
	if sblk.states[src.Page] != pageProgrammed {
		return PageMeta{}, now, fmt.Errorf("%w: copyback source %v", ErrReadErased, src)
	}
	if dblk.states[dst.Page] != pageErased {
		return PageMeta{}, now, fmt.Errorf("%w: copyback destination %v", ErrNotErased, dst)
	}
	if dst.Page != dblk.nextPage {
		return PageMeta{}, now, fmt.Errorf("%w: copyback destination %v (next is %d)", ErrProgramOrder, dst, dblk.nextPage)
	}
	meta := sblk.meta[src.Page]
	dblk.states[dst.Page] = pageProgrammed
	dblk.meta[dst.Page] = meta
	dblk.nextPage++
	if sblk.data != nil && sblk.data[src.Page] != nil {
		if dblk.data == nil {
			dblk.data = make([][]byte, d.geo.PagesPerBlock)
		}
		buf := sblk.data[src.Page]
		dblk.data[dst.Page] = buf
		ds.shared[&buf[0]]++
	}
	ds.copybacks++

	_, done := d.dieRes[src.Die].Acquire(now, d.cfg.Timing.ReadPage+d.cfg.Timing.ProgramPage)
	return meta, done, nil
}

// programTorn applies the durable side effect of a program interrupted by a
// crash: the page is marked programmed with its OOB metadata intact, but only
// a prefix of the payload was written — the final tornBytes bytes stay zero.
// Validation failures are silently ignored (the caller is crashing anyway).
func (d *Device) programTorn(addr Addr, data []byte, meta PageMeta, tornBytes int) {
	if data == nil || len(data) != d.geo.PageSize {
		return
	}
	ds := d.dies[addr.Die]
	blk := &ds.blocks[addr.Block]
	if blk.bad || blk.states[addr.Page] != pageErased {
		return
	}
	if addr.Page != blk.nextPage {
		return
	}
	cut := len(data) - tornBytes
	if cut < 0 {
		cut = 0
	}
	blk.states[addr.Page] = pageProgrammed
	blk.meta[addr.Page] = meta
	blk.nextPage++
	if blk.data == nil {
		blk.data = make([][]byte, d.geo.PagesPerBlock)
	}
	cp := d.pageBuf()
	clear(cp[copy(cp, data[:cut]):])
	blk.data[addr.Page] = cp
	ds.programs.Inc()
}

// IsBad reports whether the block has been marked bad.
func (d *Device) IsBad(b BlockAddr) (bool, error) {
	if !d.geo.ValidBlock(b) {
		return false, fmt.Errorf("%w: %v", ErrOutOfRange, b)
	}
	ds := d.dies[b.Die]
	return ds.blocks[b.Block].bad, nil
}

// DieStats is a per-die snapshot of operation counts and utilization.
type DieStats struct {
	Die        int
	Channel    int
	Reads      int64
	Programs   int64
	Erases     int64
	Copybacks  int64
	BusyTime   time.Duration
	TotalWear  int64 // sum of erase counts across the die's blocks
	MaxWear    int64 // highest per-block erase count
	BadBlocks  int
	FreeBlocks int // blocks currently fully erased (nextPage == 0 and not bad)
}

// Stats is a device-wide snapshot; the totals are the sums of PerDie.
type Stats struct {
	Reads     int64
	Programs  int64
	Erases    int64
	Copybacks int64
	BadBlocks int64
	PerDie    []DieStats
}

// Stats returns a snapshot of operation counters, wear and utilization.
func (d *Device) Stats() Stats {
	var s Stats
	s.PerDie = make([]DieStats, d.geo.Dies())
	for i, ds := range d.dies {
		st := DieStats{
			Die:       i,
			Channel:   d.geo.ChannelOfDie(i),
			Reads:     ds.reads.Value(),
			Programs:  ds.programs.Value(),
			Erases:    ds.erases.Value(),
			Copybacks: ds.copybacks,
			BusyTime:  d.dieRes[i].Busy(),
		}
		for b := range ds.blocks {
			blk := &ds.blocks[b]
			st.TotalWear += blk.eraseCount
			if blk.eraseCount > st.MaxWear {
				st.MaxWear = blk.eraseCount
			}
			if blk.bad {
				st.BadBlocks++
			} else if blk.nextPage == 0 {
				st.FreeBlocks++
			}
		}
		s.PerDie[i] = st
		s.Reads += st.Reads
		s.Programs += st.Programs
		s.Erases += st.Erases
		s.Copybacks += st.Copybacks
		s.BadBlocks += int64(st.BadBlocks)
	}
	return s
}

// ResetCounters zeroes the operation counters and resource utilization
// statistics without touching page contents or wear state.  Benchmarks call
// it after warm-up so the measured interval starts from zero.
func (d *Device) ResetCounters() {
	for _, ds := range d.dies {
		ds.reads.Reset()
		ds.programs.Reset()
		ds.erases.Reset()
		ds.copybacks = 0
	}
	for _, r := range d.dieRes {
		r.Reset()
	}
	for _, r := range d.chanRes {
		r.Reset()
	}
}
