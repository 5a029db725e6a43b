package flash

// PageMeta is the out-of-band (OOB) metadata stored alongside every
// programmed page.  Under NoFTL the DBMS uses it to make the physical page
// self-describing: which logical page it holds, which database object the
// page belongs to, and a monotonically increasing write sequence so that the
// newest physical copy of a logical page can be identified during recovery
// scans.
type PageMeta struct {
	// LPN is the logical page number stored in this physical page.
	LPN uint64
	// ObjectID identifies the database object (table, index, log, catalog)
	// the page belongs to; zero means unknown/none.
	ObjectID uint32
	// RegionID is the NoFTL region the page was placed in when written.
	RegionID uint32
	// Seq is the write sequence number (higher = newer copy of the LPN).
	Seq uint64
	// Flags carries layer-specific bits (e.g. log page, metadata page).
	Flags uint16
}

// Flag bits used by the storage layers above.
const (
	// FlagLog marks write-ahead-log pages.
	FlagLog uint16 = 1 << iota
	// FlagCatalog marks catalog/metadata pages.
	FlagCatalog
	// FlagIndex marks index pages.
	FlagIndex
	// FlagHeap marks heap (table) pages.
	FlagHeap
)
