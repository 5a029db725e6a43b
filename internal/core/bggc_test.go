package core

import (
	"math"
	"testing"

	"noftl/internal/flash"
	"noftl/internal/sim"
)

// TestBackgroundGCAvoidsForegroundStalls is the tentpole behaviour: with the
// watermark pair, almost all collection work happens in bounded background
// steps and host writes almost never block on a foreground collection.
func TestBackgroundGCAvoidsForegroundStalls(t *testing.T) {
	run := func(disable bool) Stats {
		dev := smallDevice(t, 2, 16, 8)
		opts := DefaultOptions()
		opts.OverprovisionPct = 0.25
		opts.DisableBackgroundGC = disable
		m := NewManager(dev, opts)
		overwriteWorkload(t, m, dev, 100, 8, Hint{})
		if err := m.VerifyIntegrity(); err != nil {
			t.Fatalf("disable=%v: integrity violated: %v", disable, err)
		}
		return m.Stats()
	}
	fg := run(true)
	bg := run(false)
	if fg.GCStalls == 0 {
		t.Fatal("foreground-only run never stalled; workload too small to compare")
	}
	if bg.BGGCSteps == 0 {
		t.Fatal("background GC never ran a step")
	}
	if fg.BGGCSteps != 0 {
		t.Fatalf("foreground-only run performed %d background steps", fg.BGGCSteps)
	}
	if bg.GCStalls*4 > fg.GCStalls {
		t.Fatalf("background GC should eliminate most watermark stalls: %d vs %d foreground",
			bg.GCStalls, fg.GCStalls)
	}
	// Same logical work: same number of host writes and valid pages.
	if bg.HostWrites != fg.HostWrites || bg.ValidPages != fg.ValidPages {
		t.Fatalf("runs diverged: bg %d/%d, fg %d/%d writes/valid",
			bg.HostWrites, bg.ValidPages, fg.HostWrites, fg.ValidPages)
	}
}

// TestBackgroundGCStepsAreBounded checks the incremental contract: a host
// write runs at most one background step on the die it wrote, and a step
// relocates at most the policy's StepPages pages.
func TestBackgroundGCStepsAreBounded(t *testing.T) {
	dev := smallDevice(t, 1, 16, 8)
	opts := DefaultOptions()
	opts.OverprovisionPct = 0.3
	opts.GC.StepPages = 2
	m := NewManager(dev, opts)
	// Random overwrites leave victims with more valid pages than one step
	// relocates.
	const pages = 60
	start := m.AllocateLPNs(pages)
	rng := sim.NewRand(1)
	now := sim.Time(0)
	var steps, moved int64
	for w := 0; w < 600; w++ {
		before := m.Stats()
		done, err := m.WritePage(now, start+LPN(rng.Intn(pages)), fillPage(dev, byte(w)), Hint{})
		if err != nil {
			t.Fatalf("write %d: %v", w, err)
		}
		now = done
		after := m.Stats()
		if after.GCStalls != before.GCStalls {
			continue // a foreground collection relocates whole victims
		}
		n := after.BGGCSteps - before.BGGCSteps
		if n > 1 {
			t.Fatalf("one write ran %d background steps", n)
		}
		delta := after.GCCopybacks - before.GCCopybacks
		if delta > n*2 {
			t.Fatalf("%d background steps relocated %d pages, want ≤ %d", n, delta, n*2)
		}
		steps, moved = steps+n, moved+delta
	}
	if steps == 0 || moved == 0 {
		t.Fatalf("%d background steps relocated %d pages: the bound was never tested", steps, moved)
	}
	// The erase spread stays below the wear-leveling delta, so every
	// copyback counted above is a GC step's.
	if wm := m.Stats().WearMoves; wm != 0 {
		t.Fatalf("%d wear-leveling moves mixed into the GC copybacks", wm)
	}
}

// TestBackgroundGCRunsAfterResetCounters: ResetCounters restarts the die
// timelines with the virtual clock, and with them the horizons background GC
// waits behind, so writes from t = 0 after the reset are still collected in
// background steps.  A horizon left in the old time frame kept every die
// "busy" for the rest of the run and turned all collection into stalls.
func TestBackgroundGCRunsAfterResetCounters(t *testing.T) {
	dev := smallDevice(t, 1, 16, 8)
	opts := DefaultOptions()
	opts.OverprovisionPct = 0.3
	m := NewManager(dev, opts)
	const pages = 60
	start := m.AllocateLPNs(pages)
	rng := sim.NewRand(1)
	overwrite := func(n int) {
		t.Helper()
		now := sim.Time(0)
		for w := 0; w < n; w++ {
			done, err := m.WritePage(now, start+LPN(rng.Intn(pages)), fillPage(dev, byte(w)), Hint{})
			if err != nil {
				t.Fatalf("write %d: %v", w, err)
			}
			now = done
		}
	}
	overwrite(600)
	m.ResetCounters()
	overwrite(200)
	if st := m.Stats(); st.BGGCSteps == 0 || st.GCStalls != 0 {
		t.Fatalf("after the reset: %d background steps, %d foreground stalls (die 0 idle at %v), want steps and no stalls",
			st.BGGCSteps, st.GCStalls, m.sched.DieIdleAt(0))
	}
}

// TestBackgroundGCDrainsDebt: a victim background GC takes at the low
// watermark is collected by the writes that follow, before the die needs a
// foreground collection, so a heavy overwrite workload leaves every die above
// the low watermark with no victim half collected.
func TestBackgroundGCDrainsDebt(t *testing.T) {
	dev := smallDevice(t, 2, 16, 8)
	opts := DefaultOptions()
	opts.OverprovisionPct = 0.25
	m := NewManager(dev, opts)
	overwriteWorkload(t, m, dev, 100, 6, Hint{})
	st := m.Stats()
	if st.BGGCSteps == 0 {
		t.Fatal("no background steps after a heavy overwrite workload")
	}
	if st.GCStalls != 0 || st.DiesAtLowWater != 0 || st.BGVictimsOpen != 0 {
		t.Fatalf("debt left behind: %d foreground collections, %d dies at the low watermark, %d victims open",
			st.GCStalls, st.DiesAtLowWater, st.BGVictimsOpen)
	}
	if err := m.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestDisabledBackgroundGCRunsNoSteps(t *testing.T) {
	dev := smallDevice(t, 1, 12, 4)
	opts := DefaultOptions()
	opts.DisableBackgroundGC = true
	m := NewManager(dev, opts)
	overwriteWorkload(t, m, dev, 16, 6, Hint{})
	st := m.Stats()
	if st.GCStalls == 0 {
		t.Fatal("the workload never reached the low watermark")
	}
	if st.BGGCSteps != 0 {
		t.Fatalf("disabled background GC ran %d steps", st.BGGCSteps)
	}
}

// TestSetGCPolicyPerRegion: the policy a RegionSpec gives at creation, with
// the defaults filled in, is the one RegionSpecs() and the region's stats
// show; a region given none, and the default region, keep Options().GC.
func TestSetGCPolicyPerRegion(t *testing.T) {
	dev := smallDevice(t, 4, 16, 8)
	m := NewManager(dev, DefaultOptions())
	cb := GCPolicy{Victim: VictimCostBenefit, DisableHotCold: true}
	if _, err := m.CreateRegion(RegionSpec{Name: "rgHot", MaxChips: 1, GC: &cb}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CreateRegion(RegionSpec{Name: "rgPlain", MaxChips: 1}); err != nil {
		t.Fatal(err)
	}
	want := map[string]GCPolicy{
		"rgHot":           {Victim: VictimCostBenefit, StepPages: 8, DisableHotCold: true},
		"rgPlain":         m.Options().GC,
		DefaultRegionName: m.Options().GC,
	}
	if def := m.Options().GC; def.Victim != VictimGreedy || def.StepPages != 8 || def.DisableHotCold {
		t.Fatalf("Options().GC = %+v", def)
	}
	specs := m.RegionSpecs()
	if len(specs) != 2 {
		t.Fatalf("RegionSpecs() = %+v", specs)
	}
	for _, spec := range specs {
		if *spec.GC != want[spec.Name] {
			t.Fatalf("RegionSpecs(): %s has %+v, want %+v", spec.Name, *spec.GC, want[spec.Name])
		}
	}
	for _, rs := range m.Stats().Regions {
		if rs.GC != want[rs.Name] {
			t.Fatalf("stats: %s has %+v, want %+v", rs.Name, rs.GC, want[rs.Name])
		}
	}
}

// TestCostBenefitPrefersOldInvalidBlocks unit-tests the victim scorer: among
// equally invalid blocks the older one wins, and a slightly-more-valid but
// much older block beats a fresh one.
func TestCostBenefitPrefersOldInvalidBlocks(t *testing.T) {
	dev := smallDevice(t, 1, 16, 8)
	m := NewManager(dev, DefaultOptions())
	da := m.dies[0]
	m.seq = 1000

	mk := func(idx, valid int, lastWrite uint64) {
		da.blocks[idx].state = blkClosed
		da.blocks[idx].validCount = valid
		da.blocks[idx].lastWrite = lastWrite
	}
	mk(3, 2, 990) // recent, 2 valid
	mk(5, 2, 100) // old, 2 valid  -> should win over 3
	if got := m.pickVictimCostBenefit(da); got != 5 {
		t.Fatalf("picked block %d, want the older block 5", got)
	}
	mk(5, 0, 100) // stale bookkeeping reset
	da.blocks[5].state = blkFree
	mk(6, 3, 10)  // very old, 3 valid
	mk(7, 1, 995) // brand new, 1 valid
	if got := m.pickVictimCostBenefit(da); got != 6 {
		t.Fatalf("picked block %d, want the much older block 6", got)
	}
	// Greedy disagrees: it takes the lowest-valid block regardless of age.
	if got := m.pickVictimGreedy(da); got != 7 {
		t.Fatalf("greedy picked block %d, want lowest-valid block 7", got)
	}
}

// TestHotColdSeparationPolicyReducesWA runs the same single-region workload
// — cold inserts interleaved with hot overwrites, the way a DBMS flush
// stream mixes objects — with and without hot/cold separation.  With
// separation, GC packs relocated cold survivors into dedicated blocks that
// are never collected again; with mixing they land back among fresh hot
// writes and are relocated over and over, costing write amplification.
func TestHotColdSeparationPolicyReducesWA(t *testing.T) {
	run := func(disableHotCold bool) Stats {
		dev := smallDevice(t, 2, 20, 16)
		opts := DefaultOptions()
		opts.OverprovisionPct = 0.15
		opts.GC.DisableHotCold = disableHotCold
		m := NewManager(dev, opts)
		const (
			rounds       = 40
			coldPerRound = 10
			hotPages     = 48
		)
		coldStart := m.AllocateLPNs(rounds * coldPerRound)
		hotStart := m.AllocateLPNs(hotPages)
		now := sim.Time(0)
		coldWritten := 0
		for r := 0; r < rounds; r++ {
			for i := 0; i < coldPerRound; i++ {
				done, err := m.WritePage(now, coldStart+LPN(coldWritten), fillPage(dev, 1), Hint{})
				if err != nil {
					t.Fatalf("cold write %d: %v", coldWritten, err)
				}
				coldWritten++
				now = done
			}
			for o := 0; o < 3; o++ {
				for i := 0; i < hotPages; i++ {
					done, err := m.WritePage(now, hotStart+LPN(i), fillPage(dev, byte(r)), Hint{})
					if err != nil {
						t.Fatalf("hot write: %v", err)
					}
					now = done
				}
			}
		}
		if err := m.VerifyIntegrity(); err != nil {
			t.Fatalf("disableHotCold=%v: %v", disableHotCold, err)
		}
		return m.Stats()
	}
	sep := run(false)
	mixed := run(true)
	if mixed.GCCopybacks == 0 {
		t.Fatal("mixed run produced no copybacks; workload too small")
	}
	if sep.WriteAmplification() >= mixed.WriteAmplification() {
		t.Fatalf("hot/cold separation should reduce WA: %.3f (separated) vs %.3f (mixed)",
			sep.WriteAmplification(), mixed.WriteAmplification())
	}
}

// TestWearLevelBoundsOverflow is the regression test for the erase-count
// comparison fix: with counters saturated near math.MaxInt64 the old
// minE + wearLevelDelta/2 arithmetic overflowed int64 and wear leveling
// silently skipped the coldest block.
func TestWearLevelBoundsOverflow(t *testing.T) {
	dev := smallDevice(t, 1, 16, 8)
	m := NewManager(dev, DefaultOptions())
	// Close one block naturally so it is a legitimate leveling candidate.
	start := m.AllocateLPNs(8)
	now := sim.Time(0)
	for i := 0; i < 8; i++ {
		done, err := m.WritePage(now, start+LPN(i), fillPage(dev, 9), Hint{})
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	da := m.dies[0]
	cold := -1
	for i := range da.blocks {
		if da.blocks[i].state == blkClosed {
			cold = i
			da.blocks[i].eraseCount = math.MaxInt64 - 200 // least worn
		} else {
			da.blocks[i].eraseCount = math.MaxInt64 - 50 // spread 150 > delta 64
		}
	}
	if cold < 0 {
		t.Fatal("no closed block to level")
	}
	r := m.regionsByID[DefaultRegionID]
	moves := r.wlMoves
	m.maybeWearLevel(now, r, da)
	leveled := r.wlMoves > moves
	ec := da.blocks[cold].eraseCount

	if !leveled {
		t.Fatal("wear leveling skipped the coldest block (overflow-compare regression)")
	}
	// The erased block's counter saturates instead of wrapping negative.
	if ec < 0 {
		t.Fatalf("erase counter wrapped negative: %d", ec)
	}
	// Data survived the forced relocation.
	for i := 0; i < 8; i++ {
		got, _, err := m.ReadPage(now, start+LPN(i), nil)
		if err != nil || got[0] != 9 {
			t.Fatalf("page %d lost after wear leveling: %v", i, err)
		}
	}
	if err := m.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestWornOutBlocksAreRetiredNotRepicked wears the device out on purpose:
// once a block's erase fails it must leave circulation (blkRetired) instead
// of staying closed with zero valid pages, where every victim policy would
// re-pick it forever and wedge the collection loop.  Before the fix this
// test hung.
func TestWornOutBlocksAreRetiredNotRepicked(t *testing.T) {
	cfg := flash.DefaultConfig()
	cfg.Geometry = flash.Geometry{
		Channels: 1, DiesPerChannel: 1, PlanesPerDie: 1,
		BlocksPerDie: 16, PagesPerBlock: 8, PageSize: 512,
	}
	cfg.EraseEndurance = 2
	dev, err := flash.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.OverprovisionPct = 0.3
	m := NewManager(dev, opts) // an endurance of 2 keeps wear leveling out
	start := m.AllocateLPNs(16)
	now := sim.Time(0)
	var fails int
	for r := 0; r < 100; r++ {
		for i := 0; i < 16; i++ {
			done, err := m.WritePage(now, start+LPN(i), fillPage(dev, byte(r)), Hint{})
			if err != nil {
				fails++
				continue
			}
			now = done
		}
	}
	retired := 0
	for i := range m.dies[0].blocks {
		if m.dies[0].blocks[i].state == blkRetired {
			retired++
		}
	}
	if retired == 0 {
		t.Fatal("endurance workload retired no blocks; sizing is off")
	}
	if err := m.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	t.Logf("retired %d blocks, %d failed writes", retired, fails)
}
