package core

import (
	"fmt"

	"noftl/internal/flash"
	"noftl/internal/sim"
)

// PageVersion is one programmed version of a logical page found by the
// post-crash scan.  Several versions of one LPN coexist on flash: pages are
// written out of place, and a superseded version stays until garbage
// collection erases its block.
type PageVersion struct {
	LPN  LPN
	Seq  uint64
	Addr flash.Addr
	Log  bool // a WAL page (flash.FlagLog)
}

// Survey is what the post-crash OOB scan found on a device: every version of
// every logical page.  Because every physical page carries self-describing
// metadata (LPN, object, region, sequence number), this is all it takes to
// rebuild the logical-to-physical mapping — once the recovery layer has
// decided, from the log, which versions make up the state it restores
// (Manager.Adopt).
type Survey struct {
	log  []PageVersion         // WAL pages, in device order
	data map[LPN][]PageVersion // every other page, by LPN
}

// SurveyDevice builds a space manager over a device that already holds data.
// Block states, the free lists and wear are adopted from the device; all dies
// start out owned by the default region and no logical page is mapped yet, so
// the recovery layer can recreate its regions on their (still empty) dies
// before it adopts the pages on them.  The write sequence and the LPN
// allocator continue above everything found on flash.
func SurveyDevice(dev *flash.Device, opts Options) (*Manager, *Survey) {
	m := NewManager(dev, opts)
	sv := &Survey{data: make(map[LPN][]PageVersion)}
	for _, bs := range dev.Survey() {
		da := m.dies[bs.Addr.Die]
		blk := &da.blocks[bs.Addr.Block]
		blk.eraseCount = bs.EraseCount
		switch {
		case bs.Bad:
			blk.state = blkRetired
		case bs.NextPage > 0:
			// Partially filled blocks are treated as closed: the manager
			// never resumes programming a block it did not open itself, and
			// GC reclaims the unused tail pages with the rest.
			blk.state = blkClosed
			blk.nextPage = bs.NextPage
		}
		if bs.Bad {
			continue // bad blocks hold no current data (marked bad at erase)
		}
		for _, ps := range bs.Pages {
			lpn := LPN(ps.Meta.LPN)
			v := PageVersion{LPN: lpn, Seq: ps.Meta.Seq, Addr: ps.Addr, Log: ps.Meta.Flags&flash.FlagLog != 0}
			if v.Log {
				sv.log = append(sv.log, v)
			} else {
				sv.data[lpn] = append(sv.data[lpn], v)
			}
			m.seq = max(m.seq, ps.Meta.Seq)
			m.nextLPN = max(m.nextLPN, lpn+1)
		}
	}
	for _, da := range m.dies {
		da.freeBlocks = da.freeBlocks[:0]
		for b := range da.blocks {
			if da.blocks[b].state == blkFree {
				da.freeBlocks = append(da.freeBlocks, b)
			}
		}
	}
	return m, sv
}

// LogVersions lists every surviving version of every WAL page, so the recovery
// layer can reconstruct the record stream (including the fallback from a torn
// rewrite to the older version of the page).
func (sv *Survey) LogVersions() []PageVersion { return sv.log }

// NewerThan counts the distinct versions of data pages written after the
// given write sequence: what a recovery to that sequence discards.  A page the
// garbage collector was moving when the device died is on flash twice under
// one (LPN, Seq) and counts once.
func (sv *Survey) NewerThan(seq uint64) int {
	n := 0
	for _, vs := range sv.data {
		for i, v := range vs {
			if v.Seq <= seq {
				continue
			}
			dup := false
			for _, w := range vs[:i] {
				dup = dup || w.Seq == v.Seq
			}
			if !dup {
				n++
			}
		}
	}
	return n
}

// Adopt maps the state a recovery keeps, before it writes its first page (a
// write can collect garbage, and until now everything on flash is garbage):
// each of the given logical pages at its newest version at or below
// snapshotSeq — the image of the checkpoint that took Snapshot() ==
// snapshotSeq — and every WAL page at its newest version, since the crashed
// instance's log must outlive the recovery that reads it; the caller trims the
// returned log pages once a fresh checkpoint is durable.  Retention is armed at
// snapshotSeq, so the adopted versions stay on flash until that checkpoint
// however recovery overwrites them.  Everything else stays unmapped.  stale
// lists the adopted pages that also have a newer, discarded version; see
// Rewrite.
func (m *Manager) Adopt(sv *Survey, snapshotSeq uint64, lpns []LPN) (log, stale []LPN, err error) {
	m.ckptSeq, m.epoch = snapshotSeq, max(m.epoch, 1)
	for _, lpn := range lpns {
		var best *PageVersion
		newer := false
		versions := sv.data[lpn]
		for i := range versions {
			v := &versions[i]
			if v.Seq > snapshotSeq {
				newer = true
			} else if best == nil || v.Seq > best.Seq {
				best = v
			}
		}
		if _, twice := m.lookup(lpn); best == nil || twice {
			return nil, nil, fmt.Errorf("core: lpn %d: no version at or below write sequence %d to adopt (listed twice: %v)", lpn, snapshotSeq, twice)
		}
		m.install(*best)
		if newer {
			stale = append(stale, lpn)
		}
	}
	newest := make(map[LPN]PageVersion)
	for _, v := range sv.log {
		best, seen := newest[v.LPN]
		if !seen {
			log = append(log, v.LPN)
		}
		if !seen || v.Seq > best.Seq {
			newest[v.LPN] = v
		}
	}
	for _, lpn := range log {
		m.install(newest[lpn])
	}
	return log, stale, nil
}

// Rewrite programs the current version of each page once more, where it lives.
// Recovery does this to the adopted pages that have a discarded newer version:
// its next checkpoint's Snapshot will lie above that version, which would pass
// for the page's checkpointed state after a second crash unless a still newer
// one exists.
func (m *Manager) Rewrite(now sim.Time, lpns []LPN) (sim.Time, error) {
	reads, now := m.ReadPages(now, lpns, nil)
	writes := make([]PageWrite, len(reads))
	for i, r := range reads {
		if r.Err != nil {
			return now, r.Err
		}
		writes[i] = PageWrite{LPN: r.LPN, Data: r.Data,
			Hint: Hint{Region: r.region.id, ObjectID: r.Meta.ObjectID, Flags: r.Meta.Flags}}
	}
	return m.WritePages(now, writes)
}

// install maps a logical page to the surveyed version and accounts it to the
// region that owns the die.
func (m *Manager) install(v PageVersion) {
	blk := &m.dies[v.Addr.Die].blocks[v.Addr.Block]
	blk.lpns[v.Addr.Page] = v.LPN
	blk.valid[v.Addr.Page] = true
	blk.validCount++
	blk.lastWrite = max(blk.lastWrite, v.Seq)
	owner := m.dieOwner[v.Addr.Die]
	*m.mapping.Slot(v.LPN) = newMapEntry(v.Addr, v.Log, v.Seq)
	m.regionsByID[owner].validPages++
}
