// Checkpoint retention: how steal is made safe without an undo log.
//
// A checkpoint of the layer above is the flash image at a write sequence
// number: Snapshot returns the sequence S after every dirty buffer was flushed,
// and the checkpoint is, for every logical page, the newest version with
// Seq <= S.  Pages are written out of place and self-describing, so that image
// stays on flash for as long as nothing invalidates those versions — and the
// buffer pool does overwrite them, with the changes of transactions that may
// never commit.  The manager therefore retains them: the first overwrite or
// trim of a logical page after a Snapshot leaves the superseded physical page
// valid (the garbage collector relocates it like any live page; copyback
// preserves the OOB sequence) and files it in the retained map instead of
// invalidating it.  Later overwrites of that page supersede versions newer
// than S, which no checkpoint needs.  Whatever evictions wrote in between,
// recovery finds the exact transaction-consistent image of the last durable
// checkpoint (recover.go); no page LSN or before-image is ever consulted.
//
// Retained versions serve the Snapshot (epoch) that was the newest when they
// were superseded, and ReleaseRetained, called once a checkpoint is durable,
// invalidates what the older epochs kept.  A checkpoint that fails after its
// Snapshot leaves both its own and its predecessor's versions in place — its
// end mark can still become durable with a later log force — and the next
// successful one releases both.
//
// Log pages are exempt (the log is its own redundancy), and so is everything
// before the first Snapshot: light checkpoints, databases without a log and
// direct users of the manager never pay for retention.
//
// The space cost: retained pages are physically valid, so they occupy the
// over-provisioned spare that garbage collection works with — at most one
// version per logical page and checkpoint, however often the page is
// overwritten.  They are counted per region (RegionStats.RetainedPages); a new
// page is refused while the region's valid and retained pages together fill
// the capacity of its dies, and RetentionOverBudget tells the layer above that
// a checkpoint is due.
package core

// retainedSpareShare is the divisor of a region's over-provisioned spare
// (raw pages minus capacity after OverprovisionPct) that retained versions may
// fill before a checkpoint is due: half.  The other half is what keeps garbage
// collection cheap until that checkpoint has run.
const retainedSpareShare = 2

// Snapshot starts a checkpoint epoch and returns the current write sequence:
// the version of every logical page that is newest at or below it stays on
// flash until a ReleaseRetained that follows a later Snapshot.  The caller has
// flushed every dirty page and keeps writers out until it has made the
// checkpoint durable.
func (m *Manager) Snapshot() uint64 {
	m.epoch++
	m.ckptSeq = m.seq
	return m.ckptSeq
}

// ReleaseRetained invalidates the versions retained for every epoch but the
// current one — the checkpoint of the newest Snapshot is durable and recovery
// will never go back behind it — and returns how many it released.
func (m *Manager) ReleaseRetained() int {
	released := 0
	for addr, epoch := range m.retained {
		if epoch == m.epoch {
			continue
		}
		delete(m.retained, addr)
		m.regionsByID[m.dieOwner[addr.Die]].retainedPages--
		m.invalidate(addr)
		released++
	}
	over := false
	for _, r := range m.regions {
		over = over || r.retainedPages > r.retainBudget
	}
	m.overBudget = over
	return released
}

// RetentionOverBudget reports whether some region's retained pages exceed
// their share of its over-provisioned spare: a checkpoint is due.
func (m *Manager) RetentionOverBudget() bool { return m.overBudget }

// supersede retires the physical page a logical page no longer maps to.  The
// version that was current at the newest Snapshot is retained; any other is
// invalidated.
func (m *Manager) supersede(e mapEntry) {
	if e.log() || e.seq > m.ckptSeq {
		m.invalidate(e.addr())
		return
	}
	m.retained[e.addr()] = m.epoch
	r := m.regionsByID[m.dieOwner[e.die]]
	if r.retainedPages++; r.retainedPages > r.retainBudget {
		m.overBudget = true
	}
}
