// Package core implements the paper's primary contribution: NoFTL space
// management with Regions.
//
// The Manager owns a native flash device (internal/flash) and gives the DBMS
// direct control over the physical address space:
//
//   - Regions group flash dies; database objects with similar access
//     properties are placed together and objects with different properties
//     are physically separated (CREATE REGION / tablespace coupling, §2 of
//     the paper).
//   - Logical pages are written out-of-place; the logical-to-physical
//     address translation lives in host memory.
//   - Garbage collection and wear leveling run per region inside the DBMS,
//     where object statistics are available, instead of inside a black-box
//     FTL.
//   - Out-of-place, self-describing pages are the durable state: a
//     checkpoint of the layer above is the flash image at a write sequence
//     number (Snapshot), and the page versions that make it up are retained —
//     kept valid, relocated by GC like live data — when they are overwritten,
//     until the next checkpoint releases them (retain.go).  That is what
//     makes stealing buffer frames safe without an undo log.  It costs
//     spare blocks: at most one retained version per logical page, counted
//     per region and against the room new pages may take.  After a crash the
//     survey of the OOB metadata and the checkpoint's sequence number are
//     enough to map that image again (recover.go).
//   - NewPlan hands the dies of a device out to groups of objects by their
//     footprints and I/O rates, the multi-region placement configuration of
//     the paper's Figure 2 (plan.go).
//
// A page's bytes are kept once: the device keeps what WritePages hands it, so
// nobody writes that buffer again, whether or not the write succeeded.
//
// Which region owns a die is kept once: a die's region is m.dies[d].region,
// and Region.dies lists the same dies in order.  Both change together, only
// in moveDies; a mapped page's region is the region of its die.
package core

import (
	"errors"

	"noftl/internal/flash"
)

// LPN is a logical page number: the address the DBMS storage layer uses.
// The logical address space is flat and sparse; the storage layer assigns
// LPNs to extents and objects as it sees fit.
type LPN uint64

// RegionID identifies a region.  The default region always has ID
// DefaultRegionID.
type RegionID uint32

// DefaultRegionID is the ID of the region that initially owns every die.
const DefaultRegionID RegionID = 0

// DefaultRegionName is the name of the default region.
const DefaultRegionName = "DEFAULT"

// PlacementMode selects how write hints are interpreted.
type PlacementMode int

const (
	// PlacementRegions honours the region carried in each write hint:
	// the multi-region, intelligent-data-placement configuration.
	PlacementRegions PlacementMode = iota
	// PlacementTraditional ignores write hints and places every page in the
	// default region, i.e. uniform striping over all dies with no
	// object separation — the paper's "traditional data placement" baseline.
	PlacementTraditional
)

func (m PlacementMode) String() string {
	switch m {
	case PlacementRegions:
		return "regions"
	case PlacementTraditional:
		return "traditional"
	default:
		return "unknown"
	}
}

// Hint carries the DBMS knowledge attached to a page write: which object the
// page belongs to and which region the object's tablespace is bound to.
// Under PlacementTraditional the region is ignored.
type Hint struct {
	// Region is the target region.
	Region RegionID
	// ObjectID identifies the database object for statistics and OOB
	// metadata; zero means unknown.
	ObjectID uint32
	// Flags is carried into the page's OOB metadata (flash.Flag*).
	Flags uint16
}

// Errors returned by the space manager.
var (
	// ErrUnmappedPage reports a read or trim of a logical page that has never
	// been written.
	ErrUnmappedPage = errors.New("core: logical page is not mapped")
	// ErrRegionExists reports creation of a region whose name is taken.
	ErrRegionExists = errors.New("core: region already exists")
	// ErrUnknownRegion reports an operation on a region that does not exist.
	ErrUnknownRegion = errors.New("core: unknown region")
	// ErrRegionNotEmpty reports dropping or shrinking a region that still
	// holds valid data.
	ErrRegionNotEmpty = errors.New("core: region still holds valid pages")
	// ErrRegionFull reports that a region has no space left for new logical
	// pages (its logical capacity is exhausted).
	ErrRegionFull = errors.New("core: region is full")
	// ErrNoDiesAvailable reports that a region cannot be created or grown
	// because not enough empty dies are available.
	ErrNoDiesAvailable = errors.New("core: not enough empty dies available")
	// ErrInvalidSpec reports an invalid region specification.
	ErrInvalidSpec = errors.New("core: invalid region specification")
	// ErrDefaultRegion reports an attempt to drop the default region.
	ErrDefaultRegion = errors.New("core: the default region cannot be dropped")
)

// ppa is the physical page address used internally; it is the flash device
// address type.
type ppa = flash.Addr
