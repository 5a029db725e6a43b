// Package flash models a native NAND flash device: a loose set of dies
// behind a handful of channels, exposed through the raw command set the
// paper's NoFTL architecture assumes (Read Page, Program Page, Erase Block,
// Copyback, and page metadata handling), with realistic NAND constraints
// (erase-before-program, sequential programming within a block, wear-out) and
// a virtual-time queueing model of per-die and per-channel contention.
//
// The device does not implement any translation layer, garbage collection or
// wear leveling: those are the responsibility of the layer above (the DBMS
// under NoFTL — see internal/core).
//
// A page's bytes are kept once: a program keeps the buffer it is handed, which
// nobody writes again, whether or not the program succeeded; one unchanged
// buffer may go to several programs, and a copyback shares its source's.
package flash

import (
	"fmt"
	"time"
)

// Geometry describes the physical organization of the device.
type Geometry struct {
	// Channels is the number of independent data channels.
	Channels int
	// DiesPerChannel is the number of NAND dies attached to each channel.
	// (Chips are collapsed into dies; a die is the unit of command
	// parallelism.)
	DiesPerChannel int
	// PlanesPerDie is the number of planes per die.  It is validated
	// (BlocksPerDie must be a multiple of it) but not modelled: blocks are
	// numbered die-wide and a die serves one command at a time whatever its
	// planes.
	PlanesPerDie int
	// BlocksPerDie is the number of erase blocks per die (across all planes).
	BlocksPerDie int
	// PagesPerBlock is the number of pages in an erase block.
	PagesPerBlock int
	// PageSize is the data capacity of a flash page in bytes (the DBMS page
	// size; 4 KiB in the paper's evaluation).
	PageSize int
}

// Dies returns the total number of dies in the device.
func (g Geometry) Dies() int { return g.Channels * g.DiesPerChannel }

// PagesPerDie returns the number of pages on one die.
func (g Geometry) PagesPerDie() int { return g.BlocksPerDie * g.PagesPerBlock }

// TotalPages returns the number of physical pages in the device.
func (g Geometry) TotalPages() int64 {
	return int64(g.Dies()) * int64(g.PagesPerDie())
}

// TotalBytes returns the raw capacity of the device in bytes.
func (g Geometry) TotalBytes() int64 {
	return g.TotalPages() * int64(g.PageSize)
}

// ChannelOfDie returns the channel a die is attached to.  Dies are assigned
// round-robin so that consecutive die numbers land on different channels,
// which maximizes channel-level parallelism for striped allocation.
func (g Geometry) ChannelOfDie(die int) int { return die % g.Channels }

// Validate reports whether the geometry is usable.
func (g Geometry) Validate() error {
	switch {
	case g.Channels <= 0:
		return fmt.Errorf("flash: geometry needs at least one channel, got %d", g.Channels)
	case g.DiesPerChannel <= 0:
		return fmt.Errorf("flash: geometry needs at least one die per channel, got %d", g.DiesPerChannel)
	case g.PlanesPerDie <= 0:
		return fmt.Errorf("flash: geometry needs at least one plane per die, got %d", g.PlanesPerDie)
	case g.BlocksPerDie <= 0:
		return fmt.Errorf("flash: geometry needs at least one block per die, got %d", g.BlocksPerDie)
	case g.PagesPerBlock <= 0:
		return fmt.Errorf("flash: geometry needs at least one page per block, got %d", g.PagesPerBlock)
	case g.PageSize <= 0:
		return fmt.Errorf("flash: page size must be positive, got %d", g.PageSize)
	case g.Dies() > 1<<16 || g.BlocksPerDie > 1<<30 || g.PagesPerBlock > 1<<16:
		return fmt.Errorf("flash: %d dies, %d blocks per die, %d pages per block: at most 2^16, 2^30, 2^16", g.Dies(), g.BlocksPerDie, g.PagesPerBlock)
	case g.BlocksPerDie%g.PlanesPerDie != 0:
		return fmt.Errorf("flash: blocks per die (%d) must be a multiple of planes per die (%d)",
			g.BlocksPerDie, g.PlanesPerDie)
	}
	return nil
}

func (g Geometry) String() string {
	return fmt.Sprintf("%d ch x %d dies, %d blocks/die, %d pages/block, %d B pages (%.1f MiB raw)",
		g.Channels, g.DiesPerChannel, g.BlocksPerDie, g.PagesPerBlock, g.PageSize,
		float64(g.TotalBytes())/(1<<20))
}

// Timing holds the latency parameters of the NAND cells and the channel.
type Timing struct {
	// ReadPage is the cell-to-register sense latency of a page read.
	ReadPage time.Duration
	// ProgramPage is the register-to-cell program latency.
	ProgramPage time.Duration
	// EraseBlock is the block erase latency.
	EraseBlock time.Duration
	// Transfer is the time to move one full page over the channel.
	Transfer time.Duration
}

// DefaultTiming returns SLC-like NAND timings in the range the NoFTL papers
// report for their prototype hardware (page read a few tens of µs, program a
// few hundred µs, erase ~1.5 ms, ~400 MB/s channel).
func DefaultTiming() Timing {
	return Timing{
		ReadPage:    40 * time.Microsecond,
		ProgramPage: 350 * time.Microsecond,
		EraseBlock:  1500 * time.Microsecond,
		Transfer:    10 * time.Microsecond,
	}
}

// Addr identifies one physical flash page.
type Addr struct {
	Die   int // global die index, 0 .. Geometry.Dies()-1
	Block int // block index within the die
	Page  int // page index within the block
}

// BlockAddr identifies one erase block.
type BlockAddr struct {
	Die   int
	Block int
}

// Block returns the block containing the page.
func (a Addr) BlockAddr() BlockAddr { return BlockAddr{Die: a.Die, Block: a.Block} }

func (a Addr) String() string {
	return fmt.Sprintf("d%d/b%d/p%d", a.Die, a.Block, a.Page)
}

func (b BlockAddr) String() string {
	return fmt.Sprintf("d%d/b%d", b.Die, b.Block)
}

// ValidAddr reports whether a lies within the geometry.
func (g Geometry) ValidAddr(a Addr) bool {
	return a.Die >= 0 && a.Die < g.Dies() &&
		a.Block >= 0 && a.Block < g.BlocksPerDie &&
		a.Page >= 0 && a.Page < g.PagesPerBlock
}

// ValidBlock reports whether b lies within the geometry.
func (g Geometry) ValidBlock(b BlockAddr) bool {
	return b.Die >= 0 && b.Die < g.Dies() && b.Block >= 0 && b.Block < g.BlocksPerDie
}
