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
	// TornRecords counts records dropped from the torn tail (a program
	// interrupted by the crash, or byte-level corruption of the final page).
	TornRecords int
	// TornTail reports whether the newest log write had to be discarded or
	// truncated and an older version (or a valid prefix) was used instead.
	TornTail bool
	// Bytes is the total encoded size of the surviving records.
	Bytes int64
	// StaleRecords counts records from stale pre-truncation log segments:
	// pages dropped by an old checkpoint's Truncate stay physically present
	// until the garbage collector erases their blocks, so the scan can find
	// old record runs separated from the live log by an LSN gap.  Only the
	// final contiguous run is returned; if any records were dropped this way
	// the recovery layer must find a checkpoint in the surviving run.
	StaleRecords int
	// Unreadable counts pages other than the newest write that have no valid
	// version.  A torn tail of an earlier life is such a page: recovery trimmed
	// it, but it stays on flash until GC erases its block.  Like stale records
	// they are only acceptable below a checkpoint in the surviving run.
	Unreadable int
	// MaxLSN is the highest LSN decoded from any page version, stale
	// segments included.  The recovered log must continue above it, leaving
	// a gap (Log.SeedNextLSN): the old pages stay on flash until GC erases
	// them, and the next scan tells the live run from them by that gap.
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

// ScanImages reconstructs the durable record stream from the log page images
// that survived a crash.  For every LPN the newest fully valid version wins;
// the page holding the globally newest write (the only one a single crash can
// tear) may instead contribute the valid prefix of its newest version when
// that reaches further.  Any other page without a fully valid version is
// counted as Unreadable and contributes nothing: if it held live records the
// LSN gap it leaves cuts the run, and the caller finds no covering checkpoint.
func ScanImages(images []PageImage) (ScanResult, error) {
	var res ScanResult
	if len(images) == 0 {
		return res, nil
	}
	byLPN := make(map[core.LPN][]PageImage)
	var tailLPN core.LPN
	var maxSeq uint64
	for _, img := range images {
		byLPN[img.LPN] = append(byLPN[img.LPN], img)
		if img.Seq >= maxSeq {
			maxSeq, tailLPN = img.Seq, img.LPN
		}
	}

	type pageRecs struct {
		firstLSN uint64
		recs     []Record
	}
	var pages []pageRecs
	for lpn, versions := range byLPN {
		sort.Slice(versions, func(i, j int) bool { return versions[i].Seq > versions[j].Seq })
		var chosen []Record
		found := false
		for _, v := range versions {
			recs, _, complete := parsePage(v.Data)
			if n := len(recs); n > 0 && recs[n-1].LSN > res.MaxLSN {
				res.MaxLSN = recs[n-1].LSN
			}
			if complete {
				chosen, found = recs, true
				break // older versions are prefixes of this one
			}
		}
		if lpn == tailLPN {
			// The newest write may be torn: accept the valid prefix of the
			// newest version if it reaches further than the best complete
			// version (all versions of one LPN share their first LSN).
			prefix, dropped, complete := parsePage(versions[0].Data)
			if !complete && len(prefix) > len(chosen) {
				chosen, found = prefix, true
				res.TornRecords += dropped
				res.TornTail = true
			} else if !complete {
				res.TornTail = true
				res.TornRecords += dropped
			}
		}
		if !found {
			if lpn != tailLPN { // else the newest write is fully lost: nothing durable from it
				res.Unreadable++
			}
			continue
		}
		if len(chosen) == 0 {
			continue
		}
		pages = append(pages, pageRecs{firstLSN: chosen[0].LSN, recs: chosen})
	}

	sort.Slice(pages, func(i, j int) bool { return pages[i].firstLSN < pages[j].firstLSN })
	for _, p := range pages {
		if n := len(res.Records); n > 0 && p.firstLSN != res.Records[n-1].LSN+1 {
			// An LSN gap separates a stale pre-truncation segment from the
			// rest of the log: restart with the newer run.  Truncate only ever
			// drops pages below a durable checkpoint, so everything discarded
			// here is covered by a checkpoint in the final run.
			res.StaleRecords += len(res.Records)
			res.Records = res.Records[:0]
			res.Bytes = 0
		}
		for _, r := range p.recs {
			if n := len(res.Records); n > 0 && r.LSN != res.Records[n-1].LSN+1 {
				return res, fmt.Errorf("%w: non-contiguous lsn %d after %d",
					ErrCorrupt, r.LSN, res.Records[n-1].LSN)
			}
			res.Records = append(res.Records, r)
			res.Bytes += int64(recHeaderSize + len(r.Payload))
		}
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
