package experiments

import (
	"fmt"
	"time"

	"noftl/internal/core"
	"noftl/internal/flash"
	"noftl/internal/metrics"
	"noftl/internal/sim"
)

// BackgroundGCResult is the outcome of ablation A6: the same skewed update
// workload run under foreground-only GC and under background (watermark-pair)
// GC, plus the same workload with and without hot/cold separation.
//
// The first comparison backs the claim that DBMS-scheduled background GC
// takes victim relocation off the host write path: the p99 write latency —
// dominated by writes that trip a blocking collection — drops, as does the
// number of watermark stalls.  The second backs the claim that routing
// relocated cold survivors away from fresh hot writes cuts write
// amplification.
type BackgroundGCResult struct {
	Pages   int // logical pages loaded before the update phase
	HotPct  int // percentage of updates aimed at the hot tenth of the pages
	Updates int

	// Foreground vs background GC (hot/cold separation on in both).
	ForegroundMeanWrite time.Duration
	BackgroundMeanWrite time.Duration
	ForegroundP99Write  time.Duration
	BackgroundP99Write  time.Duration
	ForegroundStalls    int64
	BackgroundStalls    int64
	BackgroundSteps     int64
	P99DeltaPct         float64 // negative: background GC shrinks the tail

	// Hot/cold separation on vs off (background GC on in both).
	SeparatedWA float64
	MixedWA     float64
	WADeltaPct  float64 // negative: separation reduces write amplification
}

func (r BackgroundGCResult) String() string {
	return fmt.Sprintf(
		"A6 background GC: %d pages, %d updates (%d%% to the hot 10%%)\n"+
			"  write p99:  foreground %v vs background %v (%+.1f%%), mean %v vs %v\n"+
			"  stalls:     foreground %d vs background %d (plus %d bounded steps)\n"+
			"  hot/cold:   WA %.2f (separated) vs %.2f (mixed) (%+.1f%%)",
		r.Pages, r.Updates, r.HotPct,
		r.ForegroundP99Write, r.BackgroundP99Write, r.P99DeltaPct,
		r.ForegroundMeanWrite, r.BackgroundMeanWrite,
		r.ForegroundStalls, r.BackgroundStalls, r.BackgroundSteps,
		r.SeparatedWA, r.MixedWA, r.WADeltaPct)
}

// bgGCRun executes the A6 workload once: a skewed single-stream update
// pattern shaped like TPC-C's I/O — a steadily growing cold data set
// (NEW_ORDER/ORDERLINE inserts) interleaved with repeated overwrites of a
// small hot set (STOCK/DISTRICT updates), of which hotPct percent of the
// update traffic hits the hot tenth of the pages.
func bgGCRun(pages, updates, hotPct int, disableBG, disableHotCold bool) (core.Stats, error) {
	hot := pages / 10
	if hot < 1 {
		hot = 1
	}
	devCfg := flash.DefaultConfig()
	devCfg.Geometry = flash.Geometry{
		Channels: 4, DiesPerChannel: 1, PlanesPerDie: 1,
		BlocksPerDie: (pages+hot)*100/70/(4*64) + 2, PagesPerBlock: 64, PageSize: 4096,
	}
	dev, err := flash.NewDevice(devCfg)
	if err != nil {
		return core.Stats{}, err
	}
	opts := core.DefaultOptions()
	opts.OverprovisionPct = 0.12
	opts.DisableBackgroundGC = disableBG
	opts.GC.DisableHotCold = disableHotCold
	mgr := core.NewManager(dev, opts)
	payload := make([]byte, dev.Geometry().PageSize)
	coldStart := mgr.AllocateLPNs(pages)
	hotStart := mgr.AllocateLPNs(hot)
	now := sim.Time(0)
	r := sim.NewRand(11)
	coldWritten := 0
	for i := 0; i < updates; i++ {
		var lpn core.LPN
		switch {
		case coldWritten < pages && (r.Intn(100) >= hotPct || coldWritten*updates < i*pages):
			// Cold insert: append the next page of the growing data set.
			lpn = coldStart + core.LPN(coldWritten)
			coldWritten++
		case r.Intn(100) < 90:
			lpn = hotStart + core.LPN(r.Intn(hot))
		default:
			// Occasional rewrite of an existing cold page (a record update
			// in an otherwise append-mostly object).
			if coldWritten == 0 {
				lpn = hotStart + core.LPN(r.Intn(hot))
			} else {
				lpn = coldStart + core.LPN(r.Intn(coldWritten))
			}
		}
		done, err := mgr.WritePage(now, lpn, payload, core.Hint{})
		if err != nil {
			return core.Stats{}, err
		}
		now = done
	}
	return mgr.Stats(), nil
}

// RunAblationBackgroundGC runs ablation A6 with the given sizing.  The
// default CLI invocation uses 6000 pages and 30000 updates.
func RunAblationBackgroundGC(pages, updates int) (BackgroundGCResult, error) {
	const hotPct = 90
	fg, err := bgGCRun(pages, updates, hotPct, true, false)
	if err != nil {
		return BackgroundGCResult{}, err
	}
	bg, err := bgGCRun(pages, updates, hotPct, false, false)
	if err != nil {
		return BackgroundGCResult{}, err
	}
	mixed, err := bgGCRun(pages, updates, hotPct, false, true)
	if err != nil {
		return BackgroundGCResult{}, err
	}

	fgW, bgW := writeLatency(fg), writeLatency(bg)
	res := BackgroundGCResult{
		Pages:   pages,
		HotPct:  hotPct,
		Updates: updates,

		ForegroundMeanWrite: fgW.Mean,
		BackgroundMeanWrite: bgW.Mean,
		ForegroundP99Write:  fgW.P99,
		BackgroundP99Write:  bgW.P99,
		ForegroundStalls:    fg.GCStalls,
		BackgroundStalls:    bg.GCStalls,
		BackgroundSteps:     bg.BGGCSteps,
		P99DeltaPct:         metrics.PercentDelta(float64(fgW.P99), float64(bgW.P99)),

		SeparatedWA: bg.WriteAmplification(),
		MixedWA:     mixed.WriteAmplification(),
		WADeltaPct:  metrics.PercentDelta(mixed.WriteAmplification(), bg.WriteAmplification()),
	}
	return res, nil
}

// writeLatency extracts the single-region write-latency snapshot of an A6
// run (the workload only ever touches the default region).
func writeLatency(st core.Stats) metrics.Snapshot {
	for _, r := range st.Regions {
		if r.WriteLatency.Count > 0 {
			return r.WriteLatency
		}
	}
	return metrics.Snapshot{}
}
