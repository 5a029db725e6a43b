package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"
	"time"

	"noftl/internal/core"
	"noftl/internal/flash"
	"noftl/internal/ftl"
	"noftl/internal/sim"
)

// The ablation experiments back the individual claims the paper makes in §1
// and §2 (see DESIGN.md, experiments A1–A4).

// ablationDevice returns a small device for the micro ablations.
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

// ParallelismResult is the outcome of ablation A1: reading N pages laid out
// sequentially on one die versus striped across all dies.
type ParallelismResult struct {
	Pages           int
	Dies            int
	SequentialOneDi time.Duration // total virtual time, all pages on one die
	StripedAllDies  time.Duration // total virtual time, pages striped over dies
	Speedup         float64
}

func (r ParallelismResult) String() string {
	return fmt.Sprintf("A1 parallelism: %d pages, 1-die sequential %v vs %d-die striped %v (%.1fx)",
		r.Pages, r.SequentialOneDi, r.Dies, r.StripedAllDies, r.Speedup)
}

// RunAblationParallelism backs the §2 claim that distributing logically
// adjacent blocks over dies costs nothing on flash (random ≈ sequential) and
// buys I/O parallelism: the same page set is read back from a single die and
// from a striped layout using batches of outstanding requests.
func RunAblationParallelism(pages, dies, batch int) (ParallelismResult, error) {
	if batch <= 0 {
		batch = 8
	}
	run := func(striped bool) (time.Duration, error) {
		// Size every die so the single-die layout also fits comfortably.
		dev, err := ablationDevice(dies, pages/64+8)
		if err != nil {
			return 0, err
		}
		mgr := core.NewManager(dev, core.DefaultOptions())
		payload := make([]byte, dev.Geometry().PageSize)
		// Write the pages.  The write hint is irrelevant here; what matters
		// is the physical location, which the manager's round-robin striping
		// controls.  For the single-die layout we use a region pinned to one
		// die.
		hint := core.Hint{}
		if !striped {
			r, err := mgr.CreateRegion(core.RegionSpec{Name: "oneDie", Dies: []int{0}})
			if err != nil {
				return 0, err
			}
			hint.Region = r.ID()
		}
		start := mgr.AllocateLPNs(pages)
		now := sim.Time(0)
		for i := 0; i < pages; i++ {
			done, err := mgr.WritePage(now, start+core.LPN(i), payload, hint)
			if err != nil {
				return 0, err
			}
			now = done
		}
		// Read everything back with `batch` outstanding requests, the way a
		// multi-threaded DBMS scan would issue them.  Only the read phase is
		// timed (the write phase is identical setup work in both layouts).
		readStart := now
		cursors := make([]sim.Time, batch)
		for c := range cursors {
			cursors[c] = readStart
		}
		for i := 0; i < pages; i++ {
			c := i % batch
			_, done, err := mgr.ReadPage(cursors[c], start+core.LPN(i), payload)
			if err != nil {
				return 0, err
			}
			cursors[c] = done
		}
		var max sim.Time
		for _, c := range cursors {
			if c > max {
				max = c
			}
		}
		return max.Sub(readStart), nil
	}
	seq, err := run(false)
	if err != nil {
		return ParallelismResult{}, err
	}
	str, err := run(true)
	if err != nil {
		return ParallelismResult{}, err
	}
	res := ParallelismResult{Pages: pages, Dies: dies, SequentialOneDi: seq, StripedAllDies: str}
	if str > 0 {
		res.Speedup = float64(seq) / float64(str)
	}
	return res, nil
}

// HotColdResult is the outcome of ablation A2: write amplification with and
// without hot/cold separation into regions.
type HotColdResult struct {
	MixedWA         float64
	SeparatedWA     float64
	MixedCopybacks  int64
	SepCopybacks    int64
	MixedErases     int64
	SeparatedErases int64
}

func (r HotColdResult) String() string {
	return fmt.Sprintf("A2 hot/cold: WA %.2f (mixed) vs %.2f (separated); copybacks %d vs %d; erases %d vs %d",
		r.MixedWA, r.SeparatedWA, r.MixedCopybacks, r.SepCopybacks, r.MixedErases, r.SeparatedErases)
}

// RunAblationHotCold backs the claim (§2, refs [3,4]) that GC overhead
// depends on separating hot and cold data: a synthetic workload writes a
// static cold data set interleaved with a small, repeatedly overwritten hot
// set, once into a single shared region and once into separate regions.
func RunAblationHotCold(coldPages, hotPages, rounds int) (HotColdResult, error) {
	run := func(separate bool) (core.Stats, error) {
		// Size the device so the valid data occupies roughly two thirds of
		// the raw capacity: garbage collection has to work for its space,
		// which is where hot/cold separation pays off.
		blocksPerDie := int(float64(coldPages+hotPages)/0.62/float64(4*64)) + 2
		dev, err := ablationDevice(4, blocksPerDie)
		if err != nil {
			return core.Stats{}, err
		}
		opts := core.DefaultOptions()
		opts.OverprovisionPct = 0.15
		if !separate {
			opts.Mode = core.PlacementTraditional
		}
		mgr := core.NewManager(dev, opts)
		hot, err := mgr.CreateRegion(core.RegionSpec{Name: "rgHot", MaxChips: 1})
		if err != nil {
			return core.Stats{}, err
		}
		payload := make([]byte, dev.Geometry().PageSize)
		coldStart := mgr.AllocateLPNs(coldPages)
		hotStart := mgr.AllocateLPNs(hotPages)
		now := sim.Time(0)
		coldWritten := 0
		coldPerRound := coldPages / rounds
		if coldPerRound < 1 {
			coldPerRound = 1
		}
		for r := 0; r < rounds; r++ {
			for i := 0; i < coldPerRound && coldWritten < coldPages; i++ {
				done, err := mgr.WritePage(now, coldStart+core.LPN(coldWritten), payload, core.Hint{})
				if err != nil {
					return core.Stats{}, err
				}
				coldWritten++
				now = done
			}
			for o := 0; o < 3; o++ {
				for i := 0; i < hotPages; i++ {
					done, err := mgr.WritePage(now, hotStart+core.LPN(i), payload, core.Hint{Region: hot.ID()})
					if err != nil {
						return core.Stats{}, err
					}
					now = done
				}
			}
		}
		return mgr.Stats(), nil
	}
	mixed, err := run(false)
	if err != nil {
		return HotColdResult{}, err
	}
	sep, err := run(true)
	if err != nil {
		return HotColdResult{}, err
	}
	return HotColdResult{
		MixedWA:         mixed.WriteAmplification(),
		SeparatedWA:     sep.WriteAmplification(),
		MixedCopybacks:  mixed.GCCopybacks,
		SepCopybacks:    sep.GCCopybacks,
		MixedErases:     mixed.GCErases,
		SeparatedErases: sep.GCErases,
	}, nil
}

// FTLResult is the outcome of ablation A3: the same update workload through
// the black-box FTL SSD and through NoFTL.
type FTLResult struct {
	FTLTime      time.Duration
	NoFTLTime    time.Duration
	FTLWA        float64
	NoFTLWA      float64
	FTLMapMisses int64
}

func (r FTLResult) String() string {
	return fmt.Sprintf("A3 FTL vs NoFTL: elapsed %v vs %v, WA %.2f vs %.2f, FTL map misses %d",
		r.FTLTime, r.NoFTLTime, r.FTLWA, r.NoFTLWA, r.FTLMapMisses)
}

// RunAblationFTLvsNoFTL backs §1's motivation: the legacy FTL stack adds
// translation overhead (bounded mapping cache) and hides dead data (no
// TRIM), which NoFTL eliminates.  The same random-update workload runs on
// both stacks over identical devices.
func RunAblationFTLvsNoFTL(pages, updates int) (FTLResult, error) {
	blocks := pages*3/(4*64) + 6
	payload := make([]byte, 4096)
	r := sim.NewRand(7)

	devF, err := ablationDevice(4, blocks)
	if err != nil {
		return FTLResult{}, err
	}
	ssdOpts := ftl.DefaultOptions()
	ssdOpts.MapCacheEntries = pages / 8
	ssd := ftl.New(devF, ssdOpts)
	now := sim.Time(0)
	for i := 0; i < pages; i++ {
		done, err := ssd.Write(now, int64(i), payload)
		if err != nil {
			return FTLResult{}, err
		}
		now = done
	}
	for i := 0; i < updates; i++ {
		lba := int64(r.Intn(pages))
		done, err := ssd.Write(now, lba, payload)
		if err != nil {
			return FTLResult{}, err
		}
		now = done
	}
	ftlTime := time.Duration(now)
	ftlStats := ssd.Stats()

	devN, err := ablationDevice(4, blocks)
	if err != nil {
		return FTLResult{}, err
	}
	mgr := core.NewManager(devN, core.DefaultOptions())
	r = sim.NewRand(7)
	start := mgr.AllocateLPNs(pages)
	now = 0
	for i := 0; i < pages; i++ {
		done, err := mgr.WritePage(now, start+core.LPN(i), payload, core.Hint{})
		if err != nil {
			return FTLResult{}, err
		}
		now = done
	}
	for i := 0; i < updates; i++ {
		lpn := start + core.LPN(r.Intn(pages))
		done, err := mgr.WritePage(now, lpn, payload, core.Hint{})
		if err != nil {
			return FTLResult{}, err
		}
		now = done
	}
	noftlTime := time.Duration(now)
	noftlStats := mgr.Stats()

	return FTLResult{
		FTLTime:      ftlTime,
		NoFTLTime:    noftlTime,
		FTLWA:        ftlStats.WriteAmplification(),
		NoFTLWA:      noftlStats.WriteAmplification(),
		FTLMapMisses: ftlStats.MapMisses,
	}, nil
}

// RegionSweepPoint is one point of ablation A4: TPC-C throughput and GC
// overhead as a function of the number of regions.
type RegionSweepPoint struct {
	Regions   int
	TPS       float64
	WriteAmp  float64
	Copybacks int64
}

// RunAblationRegionSweep backs the §2 claim that region placement is a
// trade-off between I/O parallelism and GC overhead: it runs the TPC-C
// experiment with traditional placement (1 region) and with the multi-region
// configuration, returning one sweep point per configuration.  Larger sweeps
// (custom groupings) can be produced with the Region Advisor and the public
// API; the CLI exposes this via -experiment sweep.
func RunAblationRegionSweep(scale Scale) ([]RegionSweepPoint, error) {
	f3, err := RunFigure3(scale)
	if err != nil {
		return nil, err
	}
	return []RegionSweepPoint{
		{Regions: 1, TPS: f3.Traditional.TPS, WriteAmp: f3.Traditional.WriteAmp, Copybacks: f3.Traditional.GCCopybacks},
		{Regions: 6, TPS: f3.Regions.TPS, WriteAmp: f3.Regions.WriteAmp, Copybacks: f3.Regions.GCCopybacks},
	}, nil
}

// SweepTable renders the region sweep.
func SweepTable(points []RegionSweepPoint) string {
	var b strings.Builder
	fmt.Fprintln(&b, "A4: regions vs throughput and GC overhead")
	w := tabwriter.NewWriter(&b, 0, 0, 2, ' ', 0)
	fmt.Fprintln(w, "Regions\tTPS\tWrite amplification\tGC copybacks")
	for _, p := range points {
		fmt.Fprintf(w, "%d\t%.2f\t%.2f\t%d\n", p.Regions, p.TPS, p.WriteAmp, p.Copybacks)
	}
	w.Flush()
	return b.String()
}
