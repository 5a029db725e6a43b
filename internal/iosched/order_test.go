package iosched

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"testing"
	"time"

	"noftl/internal/flash"
	"noftl/internal/sim"
)

// stableOrder is the dispatch order as a stable comparison sort of the
// indices by die computes it.
func stableOrder(reqs []Request) []int {
	order := make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(reqs[a].die(), reqs[b].die()) })
	return order
}

// randomBatch builds a batch of reads and copybacks of the pages programmed
// so far, programs in block order, erases and a request to a die the device
// lacks, some of them held back by NotBefore.  next is the next page to
// program per die (block 0 upward); done blocks are never erased, so their
// pages stay readable.
func randomBatch(r *sim.Rand, geo flash.Geometry, next []int, now sim.Time, payload []byte) []Request {
	reqs := make([]Request, 1+r.Intn(40))
	for i := range reqs {
		die := r.Intn(geo.Dies())
		written := next[die]
		req := Request{Priority: Priority(r.Intn(3)), Tag: uint64(i)}
		switch k := r.Intn(10); {
		case k < 4 && written > 0:
			p := r.Intn(written)
			req.Op, req.Addr = OpReadPage, flash.Addr{Die: die, Block: p / geo.PagesPerBlock, Page: p % geo.PagesPerBlock}
		case k < 7:
			req.Op, req.Data = OpProgram, payload
			req.Addr = flash.Addr{Die: die, Block: written / geo.PagesPerBlock, Page: written % geo.PagesPerBlock}
			req.Meta = flash.PageMeta{LPN: uint64(written), Seq: uint64(i)}
			next[die]++
		case k < 8 && written > 0:
			p := r.Intn(written)
			req.Op, req.Addr = OpCopyback, flash.Addr{Die: die, Block: p / geo.PagesPerBlock, Page: p % geo.PagesPerBlock}
			req.Dst = flash.Addr{Die: die, Block: geo.BlocksPerDie - 1, Page: r.Intn(geo.PagesPerBlock)}
		case k < 9:
			req.Op, req.Block = OpErase, flash.BlockAddr{Die: die, Block: geo.BlocksPerDie - 1 - r.Intn(2)}
		default:
			req.Op, req.Addr = OpReadPage, flash.Addr{Die: geo.Dies() + r.Intn(3), Block: 0, Page: 0}
		}
		if r.Intn(4) == 0 {
			req.NotBefore = now.Add(time.Duration(r.Intn(3000)) * time.Microsecond)
		}
		reqs[i] = req
	}
	return reqs
}

// TestDispatchOrderIsTheStableSortByDie submits random batches to one
// scheduler and, request by request in the order a stable sort by die gives,
// to a second one over an identical device: the completions must agree, and
// the order dispatched must be that order wherever the die exists.
func TestDispatchOrderIsTheStableSortByDie(t *testing.T) {
	devA, devB := testDevice(t), testDevice(t)
	a, b := New(devA), New(devB)
	geo := devA.Geometry()
	payload := bytes.Repeat([]byte{0x5A}, geo.PageSize)
	next := make([]int, geo.Dies())
	r := sim.NewRand(7)
	var now sim.Time
	for batch := 0; batch < 300; batch++ {
		reqs := randomBatch(r, geo, next, now, payload)
		want := stableOrder(reqs)
		got := a.dispatchOrder(reqs)
		if got == nil {
			got = make([]int, len(reqs))
			for i := range got {
				got[i] = i
			}
		}
		valid := func(order []int) []int {
			var out []int
			for _, i := range order {
				if d := reqs[i].die(); d >= 0 && d < geo.Dies() {
					out = append(out, i)
				}
			}
			return out
		}
		if !slices.Equal(valid(got), valid(want)) {
			t.Fatalf("batch %d: dispatch order %v, stable sort by die %v", batch, got, want)
		}

		cs, end := a.Submit(now, reqs)
		ref := make([]Completion, len(reqs))
		refEnd := now
		for _, i := range want {
			c, e := b.Submit(now, reqs[i:i+1])
			ref[i], refEnd = c[0], max(refEnd, e)
		}
		for i := range reqs {
			if g, w := cs[i], ref[i]; !bytes.Equal(g.Data, w.Data) || g.Meta != w.Meta ||
				g.Done != w.Done || fmt.Sprint(g.Err) != fmt.Sprint(w.Err) {
				t.Fatalf("batch %d, request %d (%+v): completion %+v, want %+v", batch, i, reqs[i], g, w)
			}
		}
		if end != refEnd {
			t.Fatalf("batch %d: makespan %v, want %v", batch, end, refEnd)
		}
		now = end
	}
	if st := devA.Stats(); st.Programs == 0 || st.Reads == 0 || st.Copybacks == 0 || st.Erases == 0 {
		t.Fatalf("the batches exercised too little: %+v", st)
	}
}
