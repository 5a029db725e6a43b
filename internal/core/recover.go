package core

import (
	"noftl/internal/flash"
)

// LogPageVersion is one programmed version of a WAL page found by the
// post-crash scan (several versions of the same LPN can coexist because the
// log rewrites its current page out of place on every force).
type LogPageVersion struct {
	LPN  LPN
	Seq  uint64
	Addr flash.Addr
}

// AdoptionReport summarises what RecoverManager found on the device.
type AdoptionReport struct {
	// LogVersions lists every surviving version of every WAL page, so the
	// recovery layer can reconstruct the record stream (including torn-tail
	// fallback to an older version).
	LogVersions []LogPageVersion
	// DataLPNs are the winning logical pages that are not WAL pages (heap,
	// index, catalog).  Logical recovery rebuilds their contents from the
	// checkpoint plus redo, then trims them.
	DataLPNs []LPN
	// Winners is the number of mapped logical pages after adoption.
	Winners int
	// MaxSeq is the highest OOB write sequence seen.
	MaxSeq uint64
}

// RecoverManager builds a space manager over a device that already holds
// data — the post-crash OOB scan of the NoFTL model: because every physical
// page carries self-describing metadata (LPN, object, region, sequence
// number), the logical-to-physical mapping, per-block valid counts and wear
// state are all reconstructible from the device alone.  For each LPN the
// version with the highest Seq wins; everything else is invalid.  All dies
// start out owned by the default region (region specs are restored by the
// logical recovery layer from the checkpoint's region marks).
func RecoverManager(dev *flash.Device, opts Options) (*Manager, *AdoptionReport, error) {
	m := NewManager(dev, opts)
	rep := &AdoptionReport{}

	type winner struct {
		addr flash.Addr
		seq  uint64
	}
	winners := make(map[LPN]winner)
	survey := dev.Survey()
	for _, bs := range survey {
		if bs.Bad {
			continue // bad blocks hold no current data (marked bad at erase)
		}
		for _, ps := range bs.Pages {
			lpn := LPN(ps.Meta.LPN)
			if ps.Meta.Seq > rep.MaxSeq {
				rep.MaxSeq = ps.Meta.Seq
			}
			if ps.Meta.Flags&flash.FlagLog != 0 {
				rep.LogVersions = append(rep.LogVersions, LogPageVersion{
					LPN: lpn, Seq: ps.Meta.Seq, Addr: ps.Addr,
				})
			}
			if w, ok := winners[lpn]; !ok || ps.Meta.Seq > w.seq {
				winners[lpn] = winner{addr: ps.Addr, seq: ps.Meta.Seq}
			}
		}
	}

	logSet := make(map[LPN]bool, len(rep.LogVersions))
	for _, v := range rep.LogVersions {
		logSet[v.LPN] = true
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	var maxLPN LPN
	// Adopt block states and wear.
	for _, bs := range survey {
		da := m.dies[bs.Addr.Die]
		blk := &da.blocks[bs.Addr.Block]
		blk.eraseCount = bs.EraseCount
		switch {
		case bs.Bad:
			blk.state = blkRetired
		case bs.NextPage == 0:
			blk.state = blkFree
		default:
			// Partially filled blocks are treated as closed: the manager
			// never resumes programming a block it did not open itself, and
			// GC reclaims the unused tail pages with the rest.
			blk.state = blkClosed
			blk.nextPage = bs.NextPage
		}
	}
	// Rebuild each die's free list from the adopted states.
	for _, da := range m.dies {
		da.freeBlocks = da.freeBlocks[:0]
		for b := range da.blocks {
			if da.blocks[b].state == blkFree {
				da.freeBlocks = append(da.freeBlocks, b)
			}
		}
	}
	// Install the winning mapping; everything else on flash is invalid.
	def := m.regionsByID[DefaultRegionID]
	for lpn, w := range winners {
		da := m.dies[w.addr.Die]
		blk := &da.blocks[w.addr.Block]
		blk.lpns[w.addr.Page] = lpn
		blk.valid[w.addr.Page] = true
		blk.validCount++
		if w.seq > blk.lastWrite {
			blk.lastWrite = w.seq
		}
		m.mapping[lpn] = mapEntry{
			addr:   ppa{Die: w.addr.Die, Block: w.addr.Block, Page: w.addr.Page},
			region: DefaultRegionID,
		}
		def.validPages++
		if lpn > maxLPN {
			maxLPN = lpn
		}
		if !logSet[lpn] {
			rep.DataLPNs = append(rep.DataLPNs, lpn)
		}
	}
	rep.Winners = len(winners)
	m.seq = rep.MaxSeq
	if maxLPN >= m.nextLPN {
		m.nextLPN = maxLPN + 1
	}
	return m, rep, nil
}
