package wal

import (
	"fmt"
	"sort"

	"noftl/internal/core"
	"noftl/internal/storage"
)

// PageImage is one surviving version of a log page, read back by the
// post-crash OOB scan.  Because the log rewrites its current page out of
// place on every force, several versions of the same LPN can coexist on
// flash; Seq is the device's program sequence number, so higher Seq means a
// newer (superset) version.
type PageImage struct {
	LPN  core.LPN
	Seq  uint64
	Data []byte
}

// ScanResult is the reconstructed durable record stream.
type ScanResult struct {
	// Records is the surviving log in LSN order (a contiguous range).
	Records []Record
	// TornRecords counts records dropped from the torn tail: records of a torn
	// page of the last force, and whole pages of it above its first hole.
	TornRecords int
	// TornTail reports whether part of the last force had to be discarded and
	// an older version, a valid prefix or a shorter log was used instead.
	TornTail bool
	// Bytes is the total encoded size of the surviving records.
	Bytes int64
	// StaleRecords counts records from stale pre-truncation log segments:
	// pages dropped by an old checkpoint's Truncate stay physically present
	// until the garbage collector erases their blocks, so the scan can find
	// old record runs separated from the live log by an LSN gap below the
	// horizon.  Only the run above the last such gap is returned; if any
	// records were dropped this way the recovery layer must find a checkpoint
	// in the surviving run.
	StaleRecords int
	// Unreadable counts pages written before the last force that have no valid
	// version.  A torn tail of an earlier life is such a page: recovery trimmed
	// it, but it stays on flash until GC erases its block.  Like stale records
	// they are only acceptable below a checkpoint in the surviving run.
	Unreadable int
	// MaxLSN is the highest LSN decoded from any page version, stale
	// segments and torn tail included.  The recovered log must continue above
	// it, leaving a gap (Log.SeedNextLSN): the old pages stay on flash until GC
	// erases them, and the next scan tells the live run from them by that gap.
	MaxLSN uint64
}

// parsePage decodes the records of one log page version in slot (= append)
// order.  It returns the records up to the first invalid one, how many
// structurally present records failed validation, and whether the whole page
// decoded cleanly.
func parsePage(data []byte) (recs []Record, dropped int, complete bool) {
	raw, structOK := storage.CheckedRecords(data)
	for i, rb := range raw {
		r, err := decodeRecord(rb)
		if err != nil {
			return recs, len(raw) - i, false
		}
		recs = append(recs, r)
	}
	return recs, 0, structOK
}

// pageHorizon returns the stamp of the force that wrote a log page version:
// the first LSN that force had to make durable, 0 when the header is
// unreadable.
func pageHorizon(data []byte) uint64 {
	if !storage.IsFormatted(data) || storage.PageType(data) != storage.PageTypeLog {
		return 0
	}
	return storage.PageLSN(data)
}

// ScanImages reconstructs the durable record stream from the log page images
// that survived a crash.
//
// The horizon is the highest stamp any version carries: the first LSN the last
// force had to make durable.  Every record below it was forced before and is
// on flash unless a checkpoint truncated it; no record at or above it was
// acknowledged unless the last force completed, and then none of them is
// missing.  A crash inside the last force can have left any subset of its
// pages, one of them torn.  Hence:
//
//   - for every LPN the newest fully valid version wins; a page of the last
//     force (newer than every version stamped below the horizon) may instead
//     contribute the valid prefix of its newest version when that reaches
//     further, and counts as missing when it has neither.  Any other page
//     without a valid version is Unreadable;
//   - an LSN gap below the horizon (the page after it starts at or below the
//     horizon) separates a stale pre-truncation segment from the rest of the
//     log: the scan restarts with the newer run.  Truncate only ever drops
//     pages below a durable checkpoint, so what is discarded is covered by a
//     checkpoint in the final run (the caller checks);
//   - above the horizon only contiguity admits a page: the log ends at the
//     first hole, and the pages beyond it are the torn tail, whatever they
//     hold — even a complete begin…end checkpoint was never acknowledged;
//   - a log that ends below the horizon has lost acknowledged records:
//     ErrCorrupt.
func ScanImages(images []PageImage) (ScanResult, error) {
	var res ScanResult
	byLPN := make(map[core.LPN][]PageImage)
	var horizon uint64
	for _, img := range images {
		byLPN[img.LPN] = append(byLPN[img.LPN], img)
		horizon = max(horizon, pageHorizon(img.Data))
	}
	// settled is the newest write of any earlier force; the stamps never
	// decrease from one force to the next, so everything newer than it —
	// readable or not — was written by the last one.
	var settled uint64
	for _, img := range images {
		if h := pageHorizon(img.Data); h > 0 && h < horizon {
			settled = max(settled, img.Seq)
		}
	}

	var pages [][]Record
	for _, versions := range byLPN {
		sort.Slice(versions, func(i, j int) bool { return versions[i].Seq > versions[j].Seq })
		var chosen []Record
		found := false
		for i, v := range versions {
			recs, dropped, complete := parsePage(v.Data)
			if n := len(recs); n > 0 {
				res.MaxLSN = max(res.MaxLSN, recs[n-1].LSN)
			}
			if complete {
				found = true
				if len(recs) > len(chosen) { // else the torn prefix reaches further
					chosen = recs
				}
				break // older versions are prefixes of this one
			}
			if i == 0 && v.Seq > settled {
				// A page of the last force may be torn: its valid prefix counts
				// (all versions of one LPN share their first LSN).
				res.TornTail = true
				res.TornRecords += dropped
				chosen = recs
			}
		}
		if !found && versions[0].Seq <= settled {
			res.Unreadable++
		}
		if len(chosen) > 0 {
			pages = append(pages, chosen)
		}
	}

	sort.Slice(pages, func(i, j int) bool { return pages[i][0].LSN < pages[j][0].LSN })
	total := 0
	for _, recs := range pages {
		total += len(recs)
	}
	res.Records = make([]Record, 0, total)
	var last uint64 // LSN of the newest record taken
	for i, recs := range pages {
		if first := recs[0].LSN; len(res.Records) == 0 || first != last+1 {
			if first > horizon {
				res.TornTail = true
				for _, torn := range pages[i:] {
					res.TornRecords += len(torn)
				}
				break
			}
			res.StaleRecords += len(res.Records)
			res.Records = res.Records[:0]
			res.Bytes = 0
		}
		for _, r := range recs {
			if len(res.Records) > 0 && r.LSN != last+1 {
				return res, fmt.Errorf("%w: non-contiguous lsn %d after %d", ErrCorrupt, r.LSN, last)
			}
			res.Records = append(res.Records, r)
			res.Bytes += int64(RecordSize(r))
			last = r.LSN
		}
	}
	if last+1 < horizon {
		return res, fmt.Errorf("%w: log ends at lsn %d, below the durable horizon %d", ErrCorrupt, last, horizon)
	}
	return res, nil
}

// LastCheckpoint locates the newest complete checkpoint in recs: the LSNs of
// its begin mark and of the end mark closing it.  A begin whose end never
// became durable (a crash or an error mid-checkpoint) is not a checkpoint.
func LastCheckpoint(recs []Record) (beginLSN, endLSN uint64, ok bool) {
	var open *Record
	for i := range recs {
		r := &recs[i]
		if r.Type != RecCheckpoint {
			continue
		}
		switch kind, _, _ := DecodeCheckpointMark(r.Payload); kind {
		case CkptBegin:
			open = r
		case CkptEnd:
			if open != nil && open.TxnID == r.TxnID {
				beginLSN, endLSN, ok = open.LSN, r.LSN, true
			}
			open = nil
		}
	}
	return beginLSN, endLSN, ok
}
