package core

import (
	"cmp"
	"slices"
	"time"
)

// Per-object device demand.  Every flash command the space manager issues for
// a page is charged to the database object that owns the page, at the line
// that charges it to the page's region: a host read by the object id in the
// OOB metadata the read returns, a host write by its placement hint, a GC
// copyback by the OOB metadata the copy carries along.  The counts are kept by
// disjoint op, exported as one family, noftl_object_io_total{object,kind,op},
// so the objects sum to the regions: Σ read = host reads, Σ write_first +
// write_over = host writes, Σ copyback = GC copybacks.  The DBMS names an
// object when it creates it and forgets it when it drops it; commands for
// pages whose id names no live object go to one unattributed record.

// UnattributedObject is the name under which commands for pages of no named
// object are reported (no DDL identifier can spell it).
const UnattributedObject = "(unattributed)"

// ObjectCounters is the device-side record of one database object since the
// last ResetCounters: the demand a placement is planned from (tpcc.RecordedDemand
// is one run's record of it).
type ObjectCounters struct {
	Name string
	// Kind is "table", "index" or "log" (empty for UnattributedObject).
	Kind string
	// SizePages is the object's current size in pages, as its owner reports it.
	SizePages int64
	// Reads counts host page reads the device served from the object's pages.
	Reads int64
	// Writes counts host page writes of the object's pages; Supersedes is the
	// part of them that replaced a mapped version of the page — the rest wrote
	// their page for the first time, which is all an append-only object does.
	Writes     int64
	Supersedes int64
	// Copybacks counts the object's pages garbage collection and wear
	// leveling relocated.
	Copybacks int64
	// DieTime is what those commands cost the dies they ran on, count by
	// flash.Timing: a program about 9 reads, a copyback about 10.
	DieTime time.Duration
}

// The ops an object's commands are counted by: disjoint, so the counts sum to
// the commands issued.
const (
	opRead       = iota // a host read
	opWriteFirst        // a host write of a page that had no mapped version
	opWriteOver         // a host write that superseded a mapped version
	opCopyback          // a GC or wear-leveling relocation
	numObjectOps
)

// objectIO holds one object's command counts, by op, and the owner's report of
// its size (nil for the unattributed object).
type objectIO struct {
	name, kind string
	size       func() int64
	ops        [numObjectOps]int64
}

// charge counts one command of kind op for the object whose id the page
// carries: on its own record once it is named, on the unattributed one (kept
// under id 0, which no object carries) otherwise.
func (m *Manager) charge(id uint32, op int) {
	o, ok := m.objects[id]
	if !ok {
		o = m.objects[0]
	}
	o.ops[op]++
}

// NameObject starts charging the commands for pages carrying object id to
// (name, kind); size reports the object's current size in pages.
func (m *Manager) NameObject(id uint32, name, kind string, size func() int64) {
	m.objects[id] = &objectIO{name: name, kind: kind, size: size}
}

// ForgetObject ends the record of a dropped object: what it counted moves to
// the unattributed record, so the objects still sum to the regions.
func (m *Manager) ForgetObject(id uint32) {
	o, ok := m.objects[id]
	if !ok || id == 0 {
		return
	}
	delete(m.objects, id)
	for op, n := range o.ops {
		m.objects[0].ops[op] += n
	}
}

// ObjectStats returns the record of every named object and, once a command
// was charged to it, of the unattributed one, by descending die time.
func (m *Manager) ObjectStats() []ObjectCounters {
	t := m.dev.Timing()
	out := make([]ObjectCounters, 0, len(m.objects))
	for id, o := range m.objects {
		c := ObjectCounters{
			Name: o.name, Kind: o.kind,
			Reads:      o.ops[opRead],
			Writes:     o.ops[opWriteFirst] + o.ops[opWriteOver],
			Supersedes: o.ops[opWriteOver],
			Copybacks:  o.ops[opCopyback],
		}
		c.DieTime = time.Duration(c.Reads)*t.ReadPage + time.Duration(c.Writes)*t.ProgramPage +
			time.Duration(c.Copybacks)*(t.ReadPage+t.ProgramPage)
		if o.size != nil {
			c.SizePages = o.size()
		}
		if id != 0 || c.DieTime > 0 {
			out = append(out, c)
		}
	}
	slices.SortFunc(out, func(a, b ObjectCounters) int {
		return cmp.Or(cmp.Compare(b.DieTime, a.DieTime), cmp.Compare(a.Name, b.Name))
	})
	return out
}
