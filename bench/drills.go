package main

import (
	"fmt"
	"runtime"
	"time"

	"noftl/internal/btree"
	"noftl/internal/buffer"
	"noftl/internal/core"
	"noftl/internal/flash"
	"noftl/internal/iosched"
	"noftl/internal/sim"
	"noftl/internal/storage"
	"noftl/internal/txn"
	"noftl/internal/wal"
)

// Layer drills: each is a fixed-iteration loop over one layer's exported
// functions on a fresh instance, reporting host nanoseconds and heap
// allocations per call.  They locate a host-cost change in one layer; they
// carry no bound because a few thousand iterations are too short to be
// steady.

// drillStack is a fresh device with the layers above it, as db.go wires them.
type drillStack struct {
	dev  *flash.Device
	mgr  *core.Manager
	pool *buffer.Pool
	ts   *storage.Tablespace
}

func newDrillStack(frames int) (*drillStack, error) {
	dev, err := flash.NewDevice(flash.DefaultConfig())
	if err != nil {
		return nil, err
	}
	mgr := core.NewManager(dev, core.DefaultOptions())
	pool := buffer.New(mgr, frames, dev.Geometry().PageSize, nil)
	pool.Configure(buffer.Options{GroupWriteBack: true})
	return &drillStack{
		dev: dev, mgr: mgr, pool: pool,
		ts: storage.NewTablespace("DRILL", core.DefaultRegionID, 0, mgr),
	}, nil
}

// timeLoop runs fn n times and returns nanoseconds and allocations per call.
func timeLoop(n int, fn func(i int) error) (ns, allocs float64, err error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, 0, fmt.Errorf("iteration %d: %w", i, err)
		}
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(elapsed) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n), nil
}

// runDrills runs every drill with about iters iterations and stores
// <drill>_ns and <drill>_allocs in out.
func runDrills(iters int, out map[string]float64) error {
	record := func(name string, n int, fn func(i int) error) error {
		ns, allocs, err := timeLoop(n, fn)
		if err != nil {
			return fmt.Errorf("drill %s: %w", name, err)
		}
		out[name+"_ns"], out[name+"_allocs"] = ns, allocs
		return nil
	}
	for _, group := range []func(int, recordFn) error{
		drillBtree, drillHeap, drillBuffer, drillWALTxn, drillCore, drillDevice,
	} {
		if err := group(iters, record); err != nil {
			return err
		}
	}
	return nil
}

// recordFn times one drill: n calls of fn, stored under name.
type recordFn = func(name string, n int, fn func(i int) error) error

// scatter maps i to a pseudo-random position below n (n need not be prime:
// the multiplier is odd and the sequence only has to look unordered).
func scatter(i, n int) int { return int(uint64(i) * 2654435761 % uint64(n)) }

func drillBtree(n int, record recordFn) error {
	st, err := newDrillStack(4096)
	if err != nil {
		return err
	}
	tree, now, err := btree.New(0, "DRILL_IDX", 1, st.ts, st.pool)
	if err != nil {
		return err
	}
	val := make([]byte, 10)
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = btree.Key(uint32(i))
	}
	// Keys arrive in a scattered order, so inserts split pages all over the
	// tree; scatter repeats some keys, and an upsert is still an insert call.
	if err := record("btree.insert", n, func(i int) error {
		now, err = tree.Insert(now, keys[scatter(i, n)], val)
		return err
	}); err != nil {
		return err
	}
	for i := range keys { // make sure every key exists before searching
		if now, err = tree.Insert(now, keys[i], val); err != nil {
			return err
		}
	}
	if err := record("btree.search", n, func(i int) error {
		_, _, found, err := tree.Get(now, keys[scatter(i, n)])
		if err == nil && !found {
			err = fmt.Errorf("key %d not found", scatter(i, n))
		}
		return err
	}); err != nil {
		return err
	}
	return record("btree.range100", max(n/100, 1), func(i int) error {
		lo := scatter(i, max(n-100, 1))
		seen := 0
		_, err := tree.Scan(now, keys[lo], nil, func(_, _ []byte) bool {
			seen++
			return seen < 100
		})
		return err
	})
}

func drillHeap(n int, record recordFn) error {
	st, err := newDrillStack(4096)
	if err != nil {
		return err
	}
	heap := storage.NewHeapFile("DRILL_HEAP", 1, st.ts, st.pool)
	rec := make([]byte, 100)
	rids := make([]storage.RID, n)
	var now sim.Time
	if err := record("storage.heap_insert", n, func(i int) error {
		rids[i], now, err = heap.Insert(now, rec)
		return err
	}); err != nil {
		return err
	}
	if err := record("storage.heap_get", n, func(i int) error {
		_, _, err := heap.Get(now, rids[scatter(i, n)])
		return err
	}); err != nil {
		return err
	}
	return record("storage.heap_update", n, func(i int) error {
		now, err = heap.Update(now, rids[scatter(i, n)], rec)
		return err
	})
}

func drillBuffer(n int, record recordFn) error {
	const pages = 1024
	for _, d := range []struct {
		name   string
		frames int
	}{{"buffer.fetch_hit", 2 * pages}, {"buffer.fetch_miss", pages / 16}} {
		st, err := newDrillStack(d.frames)
		if err != nil {
			return err
		}
		hint := st.ts.Hint(1, 0)
		lpns := make([]core.LPN, pages)
		var now sim.Time
		for i := range lpns {
			lpns[i] = st.ts.AllocatePage()
			h, done, err := st.pool.NewPage(now, lpns[i], hint)
			if err != nil {
				return err
			}
			h.MarkDirty()
			h.Release()
			now = done
		}
		if now, err = st.pool.FlushAll(now); err != nil {
			return err
		}
		// Sequential sweeps: with more frames than pages every fetch hits,
		// with 16x fewer every fetch misses and evicts a clean page.
		if err := record(d.name, n, func(i int) error {
			h, _, err := st.pool.Fetch(now, lpns[i%pages], hint)
			if err == nil {
				h.Release()
			}
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

func drillWALTxn(n int, record recordFn) error {
	st, err := newDrillStack(64)
	if err != nil {
		return err
	}
	log := wal.New(st.mgr, st.ts.Hint(1, flash.FlagLog), st.dev.Geometry().PageSize)
	payload := make([]byte, 100)
	if err := record("wal.append", n, func(i int) error {
		_, err := log.Append(wal.RecUpdate, uint64(i), 2, payload)
		return err
	}); err != nil {
		return err
	}
	var now sim.Time
	// Every commit forces a log page, so this drill runs a quarter of the
	// iterations to stay well inside the device.
	if err := record("wal.commit", max(n/4, 1), func(i int) error {
		lsn, err := log.Append(wal.RecCommit, uint64(i), 0, nil)
		if err != nil {
			return err
		}
		now, err = log.Commit(now, lsn)
		return err
	}); err != nil {
		return err
	}
	mgr := txn.NewManager(txn.NewLockManager(time.Second), nil, sim.NewClock())
	lockKeys := make([]string, 256)
	for i := range lockKeys {
		lockKeys[i] = fmt.Sprintf("DRILL:%d", i)
	}
	return record("txn.begin_lock_commit", n, func(i int) error {
		tx := mgr.Begin(sim.Time(i))
		if err := tx.Lock(lockKeys[i%len(lockKeys)], txn.Exclusive); err != nil {
			return err
		}
		_, err := tx.Commit()
		return err
	})
}

func drillCore(n int, record recordFn) error {
	st, err := newDrillStack(64)
	if err != nil {
		return err
	}
	const span = 4096 // distinct logical pages, overwritten round-robin
	first := st.mgr.AllocateLPNs(span)
	page := make([]byte, st.dev.Geometry().PageSize)
	hint := core.Hint{Region: core.DefaultRegionID, ObjectID: 1}
	var now sim.Time
	if err := record("core.write_page", max(n, span), func(i int) error {
		now, err = st.mgr.WritePage(now, first+core.LPN(i%span), page, hint)
		return err
	}); err != nil {
		return err
	}
	buf := make([]byte, len(page))
	if err := record("core.read_page", n, func(i int) error {
		_, _, err := st.mgr.ReadPage(now, first+core.LPN(scatter(i, span)), buf)
		return err
	}); err != nil {
		return err
	}
	writes := make([]core.PageWrite, 64)
	return record("core.write_batch64", max(n/64, 1), func(i int) error {
		for j := range writes {
			writes[j] = core.PageWrite{LPN: first + core.LPN((i*64+j)%span), Data: page, Hint: hint}
		}
		now, err = st.mgr.WritePages(now, writes)
		return err
	})
}

func drillDevice(n int, record recordFn) error {
	// Pages are programmed die-major and in ascending order within a block,
	// the order NAND requires; the loops stop before the device is full.
	pageAt := func(geo flash.Geometry, i int) flash.Addr {
		die, idx := i%geo.Dies(), i/geo.Dies()
		return flash.Addr{Die: die, Block: idx / geo.PagesPerBlock, Page: idx % geo.PagesPerBlock}
	}
	dev, err := flash.NewDevice(flash.DefaultConfig())
	if err != nil {
		return err
	}
	geo := dev.Geometry()
	capacity := geo.Dies() * geo.BlocksPerDie * geo.PagesPerBlock
	page := make([]byte, geo.PageSize)
	var now sim.Time
	if err := record("flash.program", min(n, capacity), func(i int) error {
		now, err = dev.ProgramPage(now, pageAt(geo, i), page, flash.PageMeta{LPN: uint64(i), Seq: uint64(i)})
		return err
	}); err != nil {
		return err
	}

	if dev, err = flash.NewDevice(flash.DefaultConfig()); err != nil {
		return err
	}
	sched := iosched.New(dev)
	reqs := make([]iosched.Request, 64)
	now = 0
	return record("iosched.submit_batch64", max(min(n, capacity)/64, 1), func(i int) error {
		for j := range reqs {
			k := i*64 + j
			reqs[j] = iosched.Request{
				Op: iosched.OpProgram, Addr: pageAt(geo, k), Data: page,
				Meta: flash.PageMeta{LPN: uint64(k), Seq: uint64(k)}, Priority: iosched.PrioHostWrite,
			}
		}
		completions, done := sched.Submit(now, reqs)
		now = done
		for _, c := range completions {
			if c.Err != nil {
				return c.Err
			}
		}
		return nil
	})
}
