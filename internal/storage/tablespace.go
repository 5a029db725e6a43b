package storage

import (
	"fmt"

	"noftl/internal/core"
)

// Tablespace is the logical storage structure the DBA works with.  It is
// bound to a NoFTL region (the paper's coupling of tablespaces to regions)
// and hands out pages to the objects created in it, extent by extent.
type Tablespace struct {
	name           string
	region         core.RegionID
	extentPages    int
	mgr            *core.Manager
	currentStart   core.LPN
	currentUsed    int
	allocatedPages int64
	extents        int64
}

// DefaultExtentPages is the extent size used when none is specified
// (32 pages = 128 KiB with 4 KiB pages, the value in the paper's example
// DDL).
const DefaultExtentPages = 32

// NewTablespace creates a tablespace bound to the given region.  extentPages
// is the number of pages allocated at a time; zero selects
// DefaultExtentPages.
func NewTablespace(name string, region core.RegionID, extentPages int, mgr *core.Manager) *Tablespace {
	if extentPages <= 0 {
		extentPages = DefaultExtentPages
	}
	return &Tablespace{
		name:        name,
		region:      region,
		extentPages: extentPages,
		mgr:         mgr,
	}
}

// Name returns the tablespace name.
func (t *Tablespace) Name() string { return t.name }

// Region returns the region the tablespace is bound to.
func (t *Tablespace) Region() core.RegionID { return t.region }

// ExtentPages returns the extent size in pages.
func (t *Tablespace) ExtentPages() int { return t.extentPages }

// AllocatedPages returns the number of pages handed out so far.
func (t *Tablespace) AllocatedPages() int64 {
	return t.allocatedPages
}

// Extents returns the number of extents allocated so far.
func (t *Tablespace) Extents() int64 {
	return t.extents
}

// Hint returns the placement hint pages of the given object should carry
// when they are written.
func (t *Tablespace) Hint(objectID uint32, flags uint16) core.Hint {
	return core.Hint{Region: t.region, ObjectID: objectID, Flags: flags}
}

// AllocatePage returns the next free logical page number of the tablespace,
// allocating a new extent from the space manager when the current one is
// exhausted.
func (t *Tablespace) AllocatePage() core.LPN {
	if t.currentUsed == 0 || t.currentUsed >= t.extentPages {
		t.currentStart = t.mgr.AllocateLPNs(t.extentPages)
		t.currentUsed = 0
		t.extents++
	}
	lpn := t.currentStart + core.LPN(t.currentUsed)
	t.currentUsed++
	t.allocatedPages++
	return lpn
}

// String describes the tablespace.
func (t *Tablespace) String() string {
	return fmt.Sprintf("tablespace %q (region %d, extent %d pages)", t.name, t.region, t.extentPages)
}
