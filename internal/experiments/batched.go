package experiments

import (
	"fmt"
	"time"

	"noftl/internal/core"
	"noftl/internal/flash"
	"noftl/internal/sim"
)

// ablationDevice returns a small device for the micro ablations A5 and A6.
func ablationDevice(dies, blocksPerDie int) (*flash.Device, error) {
	cfg := flash.DefaultConfig()
	channels := 4
	if dies < channels {
		channels = dies
	}
	cfg.Geometry = flash.Geometry{
		Channels: channels, DiesPerChannel: (dies + channels - 1) / channels, PlanesPerDie: 1,
		BlocksPerDie: blocksPerDie, PagesPerBlock: 64, PageSize: 4096,
	}
	return flash.NewDevice(cfg)
}

// BatchedIOResult is the outcome of ablation A5: the same page set read and
// overwritten through the I/O scheduler in batches versus one
// page at a time.
type BatchedIOResult struct {
	Pages            int
	Dies             int
	Batch            int
	SerialReadTime   time.Duration
	BatchedReadTime  time.Duration
	ReadSpeedup      float64
	SerialWriteTime  time.Duration
	BatchedWriteTime time.Duration
	WriteSpeedup     float64
}

func (r BatchedIOResult) String() string {
	return fmt.Sprintf(
		"A5 batched I/O: %d pages over %d dies, batch %d\n"+
			"  reads:  serial %v vs batched %v (%.1fx)\n"+
			"  writes: serial %v vs batched %v (%.1fx)",
		r.Pages, r.Dies, r.Batch,
		r.SerialReadTime, r.BatchedReadTime, r.ReadSpeedup,
		r.SerialWriteTime, r.BatchedWriteTime, r.WriteSpeedup)
}

// RunAblationBatchedIO measures what the iosched subsystem buys: `pages`
// logical pages are striped over `dies` dies by the space manager, then read
// back and overwritten twice — once serially (each request waits for the
// previous, the pre-scheduler behaviour) and once in scheduler batches of
// `batch` requests.  Only virtual (simulated) time is compared; the workload
// and physical layout are identical in both runs.
func RunAblationBatchedIO(pages, dies, batch int) (BatchedIOResult, error) {
	if batch <= 0 {
		batch = 64
	}
	dev, err := ablationDevice(dies, pages*3/(dies*64)+8)
	if err != nil {
		return BatchedIOResult{}, err
	}
	mgr := core.NewManager(dev, core.DefaultOptions())
	payload := make([]byte, dev.Geometry().PageSize)
	start := mgr.AllocateLPNs(pages)

	// Load phase (not timed): stripe the pages over every die.
	writes := make([]core.PageWrite, 0, batch)
	now := sim.Time(0)
	for i := 0; i < pages; i += batch {
		writes = writes[:0]
		for j := i; j < i+batch && j < pages; j++ {
			writes = append(writes, core.PageWrite{LPN: start + core.LPN(j), Data: payload})
		}
		done, err := mgr.WritePages(now, writes)
		if err != nil {
			return BatchedIOResult{}, err
		}
		now = done
	}

	res := BatchedIOResult{Pages: pages, Dies: dies, Batch: batch}

	// Serial reads: each page waits for the previous one.
	t0 := now
	for i := 0; i < pages; i++ {
		_, done, err := mgr.ReadPage(now, start+core.LPN(i), payload)
		if err != nil {
			return BatchedIOResult{}, err
		}
		now = done
	}
	res.SerialReadTime = now.Sub(t0)

	// Batched reads through the scheduler.
	t0 = now
	lpns := make([]core.LPN, 0, batch)
	for i := 0; i < pages; i += batch {
		lpns = lpns[:0]
		for j := i; j < i+batch && j < pages; j++ {
			lpns = append(lpns, start+core.LPN(j))
		}
		reads, end := mgr.ReadPages(now, lpns, nil)
		for _, r := range reads {
			if r.Err != nil {
				return BatchedIOResult{}, r.Err
			}
		}
		now = end
	}
	res.BatchedReadTime = now.Sub(t0)

	// Serial overwrites.
	t0 = now
	for i := 0; i < pages; i++ {
		done, err := mgr.WritePage(now, start+core.LPN(i), payload, core.Hint{})
		if err != nil {
			return BatchedIOResult{}, err
		}
		now = done
	}
	res.SerialWriteTime = now.Sub(t0)

	// Batched overwrites.
	t0 = now
	for i := 0; i < pages; i += batch {
		writes = writes[:0]
		for j := i; j < i+batch && j < pages; j++ {
			writes = append(writes, core.PageWrite{LPN: start + core.LPN(j), Data: payload})
		}
		done, err := mgr.WritePages(now, writes)
		if err != nil {
			return BatchedIOResult{}, err
		}
		now = done
	}
	res.BatchedWriteTime = now.Sub(t0)

	if res.BatchedReadTime > 0 {
		res.ReadSpeedup = float64(res.SerialReadTime) / float64(res.BatchedReadTime)
	}
	if res.BatchedWriteTime > 0 {
		res.WriteSpeedup = float64(res.SerialWriteTime) / float64(res.BatchedWriteTime)
	}
	return res, nil
}
