package flash

import (
	"encoding/binary"
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

	// Operation counts; device totals are sums over the dies.
	reads, programs, erases, copybacks int64
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

	freeBufs  [][]byte           // page buffers nobody holds, for PageBuf
	slabs     [][]byte           // what PageBuf cut them from
	slabN     int                // buffers per slab
	onProgram func(Addr, []byte) // see OnProgram
}

// PageBuf cuts buffers from slabs: slabN of them, then for each a magic word
// and its count of holders (the pages programmed with it and whoever drew it
// or called Hold).  A buffer's capacity runs to its slab's end, where its
// count is, and at zero the buffer is free again; other buffers have none.
const bufMagic, slabBytes = 0x6e6f66bf, 1 << 20

// hold adds delta to buf's hold count and returns it, or -1 if buf has none.
func (d *Device) hold(buf []byte, delta int64) int64 {
	nb, ps := d.slabN, d.geo.PageSize
	i := (nb*(ps+8) - cap(buf)) / ps // the buffer's place in its slab
	if len(buf) != ps || nb*(ps+8)-cap(buf) != i*ps || uint(i) >= uint(nb) ||
		binary.LittleEndian.Uint32(buf[(nb-i)*ps+8*i:cap(buf)]) != bufMagic {
		return -1
	}
	c := buf[(nb-i)*ps+8*i+4 : cap(buf)]
	n := int64(binary.LittleEndian.Uint32(c)) + delta
	if n < 0 {
		panic("flash: release of a page buffer nobody holds")
	}
	binary.LittleEndian.PutUint32(c, uint32(n))
	return n
}

// PageBuf returns a PageSize buffer, held once by the caller, who may write it
// until handing it to a program; never append to it (see above).
func (d *Device) PageBuf() []byte {
	if len(d.freeBufs) == 0 {
		d.slabs = append(d.slabs, make([]byte, d.slabN*(d.geo.PageSize+8)))
		d.freeSlab(d.slabs[len(d.slabs)-1])
	}
	buf := d.freeBufs[len(d.freeBufs)-1]
	d.freeBufs = d.freeBufs[:len(d.freeBufs)-1]
	d.hold(buf, 1)
	return buf
}

// freeSlab marks every buffer of slab held by nobody and frees it.
func (d *Device) freeSlab(slab []byte) {
	for i, ps := 0, d.geo.PageSize; i < d.slabN; i++ {
		binary.LittleEndian.PutUint64(slab[d.slabN*ps+8*i:], bufMagic)
		d.freeBufs = append(d.freeBufs, slab[i*ps:(i+1)*ps:len(slab)])
	}
}

// Hold counts one more holder of a buffer drawn from PageBuf.
func (d *Device) Hold(buf []byte) { d.hold(buf, 1) }

// Release drops a hold of a buffer drawn from PageBuf; the last frees it.
func (d *Device) Release(buf []byte) {
	if d.hold(buf, -1) == 0 {
		d.freeBufs = append(d.freeBufs, buf)
	}
}

// OnProgram has fn see every payload a page is programmed with (nil: none).
func (d *Device) OnProgram(fn func(Addr, []byte)) { d.onProgram = fn }

// store makes buf the payload of the page at addr, held by the page.
func (d *Device) store(blk *blockState, addr Addr, buf []byte) {
	if blk.data == nil {
		blk.data = make([][]byte, d.geo.PagesPerBlock)
	}
	blk.data[addr.Page] = buf
	d.Hold(buf)
	if d.onProgram != nil {
		d.onProgram(addr, buf)
	}
}

// NewDevice creates a device with the given configuration.
func NewDevice(cfg Config) (*Device, error) {
	if err := cfg.Geometry.Validate(); err != nil {
		return nil, err
	}
	d := &Device{
		cfg:   cfg,
		geo:   cfg.Geometry,
		slabN: max(1, slabBytes/(cfg.Geometry.PageSize+8)),
	}

	nDies := d.geo.Dies()
	d.dies = make([]*dieState, nDies)
	d.dieRes = make([]*sim.Resource, nDies)
	for i := 0; i < nDies; i++ {
		ds := &dieState{blocks: make([]blockState, d.geo.BlocksPerDie)}
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
	return d, nil
}

// WriteMetrics writes the per-die operation counts into the noftl_device_*
// families of mt.
func (d *Device) WriteMetrics(mt *metrics.Text) {
	reads := mt.Counter("noftl_device_reads_total", "Physical page reads on the flash device.", "die")
	programs := mt.Counter("noftl_device_programs_total", "Physical page programs on the flash device.", "die")
	erases := mt.Counter("noftl_device_erases_total", "Physical block erases on the flash device.", "die")
	for i, ds := range d.dies {
		die := strconv.Itoa(i)
		reads.Add(ds.reads, die)
		programs.Add(ds.programs, die)
		erases.Add(ds.erases, die)
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
// bytes long and receives a copy of the page data; otherwise the page's own
// buffer is returned, read-only, which unless held (Hold) lasts until the
// block's erase.  A page programmed without a payload leaves buf as it is.
// It returns the page metadata and the virtual completion time.
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
			buf = blk.data[addr.Page]
		} else {
			copy(buf, blk.data[addr.Page])
		}
	}
	ds.reads++

	_, sensed := d.dieRes[addr.Die].Acquire(now, d.cfg.Timing.ReadPage)
	_, done := d.channel(addr.Die).Acquire(sensed, d.cfg.Timing.Transfer)
	return buf, meta, done, nil
}

// ProgramPage writes data and metadata to the erased page at addr.  The
// payload must be exactly PageSize bytes, or nil for a page that carries its
// metadata only; the page keeps it (see the package comment).  Programming a
// non-erased page or violating the sequential-programming constraint fails.
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
		d.store(blk, addr, data)
	}
	ds.programs++

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
	for i, buf := range blk.data {
		d.Release(buf)
		blk.data[i] = nil
	}
	blk.nextPage = 0
	blk.eraseCount++
	if d.cfg.EraseEndurance > 0 && blk.eraseCount >= d.cfg.EraseEndurance {
		blk.bad = true
	}
	ds.erases++

	_, done := d.dieRes[b.Die].Acquire(now, d.cfg.Timing.EraseBlock)
	return done, nil
}

// Copyback copies a programmed page to an erased page on the same die
// without transferring the data over the channel (the NAND-internal copyback
// command used by garbage collection).  The destination inherits the source
// metadata and the method returns it so the caller can update its mapping.
// It gives the destination the source's buffer instead of copying it.
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
		d.store(dblk, dst, sblk.data[src.Page])
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
	cp := d.PageBuf()
	clear(cp[copy(cp, data[:cut]):])
	d.store(blk, addr, cp)
	d.Release(cp) // the page's hold remains
	ds.programs++
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
			Reads:     ds.reads,
			Programs:  ds.programs,
			Erases:    ds.erases,
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

// ResetCounters zeroes the operation counts and the die and channel
// timelines without touching page contents or wear state.  Benchmarks call it
// after warm-up so the measured interval starts from zero.
func (d *Device) ResetCounters() {
	d.ResetCounts()
	for _, r := range d.dieRes {
		r.Reset()
	}
	for _, r := range d.chanRes {
		r.Reset()
	}
}

// ResetCounts zeroes the operation counts only: the die and channel timelines
// keep the virtual times of the commands already served.
func (d *Device) ResetCounts() {
	for _, ds := range d.dies {
		ds.reads, ds.programs, ds.erases, ds.copybacks = 0, 0, 0, 0
	}
}
