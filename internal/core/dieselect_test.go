package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"

	"noftl/internal/flash"
	"noftl/internal/sim"
)

// TestRegionDieSelectionGolden pins which dies CREATE REGION, growing a region
// and DROP REGION hand out.  Over a grid of geometries (1, 2, 3, 4 and 8
// channels of 1 to 4 dies), six seeded patterns of dies that hold data, zero to
// two regions created first, every MAX_CHIPS from 1 to one more than the dies
// and every MAX_CHANNELS from 0 (no limit) to one more than the channels, it
// hashes the die lists of the new region and of DEFAULT after CreateRegion,
// then after GrowRegion, then DEFAULT's after DropRegion; a refusal hashes its
// error.  A change to die selection that moves any choice moves the digest.
func TestRegionDieSelectionGolden(t *testing.T) {
	const want = "854f50e79e3b4eac74f4e8b99adfcbb42815b99010094c5471a68a922aaa6efb"
	h := sha256.New()
	selections := 0
	for _, channels := range []int{1, 2, 3, 4, 8} {
		for perChannel := 1; perChannel <= 4; perChannel++ {
			for pattern := 0; pattern < 6; pattern++ {
				for pre := 0; pre <= 2; pre++ {
					selections += selectDiesGrid(t, h, channels, perChannel, pattern, pre)
				}
			}
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("%d die selections, digest %s", selections, got)
	if got != want {
		t.Errorf("die selection digest %s, recorded %s", got, want)
	}
}

// selectDiesGrid builds one device, makes the dies of a seeded pattern hold a
// valid page (pattern p occupies each die with probability p/6), creates pre
// regions, and then for every MAX_CHIPS and MAX_CHANNELS creates, grows and
// drops one region, writing each outcome to h.  It returns how many regions it
// tried to create.
func selectDiesGrid(t *testing.T, h io.Writer, channels, perChannel, pattern, pre int) int {
	t.Helper()
	cfg := flash.DefaultConfig()
	cfg.Geometry = flash.Geometry{Channels: channels, DiesPerChannel: perChannel,
		PlanesPerDie: 1, BlocksPerDie: 8, PagesPerBlock: 2, PageSize: 16}
	dev, err := flash.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(dev, DefaultOptions())
	dies := cfg.Geometry.Dies()
	r := sim.NewRand(uint64(1000*channels + 100*perChannel + 10*pattern + pre))

	// One page per die (DEFAULT writes go round-robin over its dies), then
	// trim the pages of the dies the pattern leaves empty.
	first := m.AllocateLPNs(dies)
	for i := 0; i < dies; i++ {
		if _, err := m.WritePage(0, first+LPN(i), make([]byte, cfg.Geometry.PageSize), Hint{}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < dies; i++ {
		if r.Intn(6) >= pattern {
			if err := m.TrimPage(first + LPN(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	fmt.Fprintf(h, "geometry %dx%d pattern %d pre %d\n", channels, perChannel, pattern, pre)
	for i := 0; i < pre; i++ {
		spec := RegionSpec{Name: fmt.Sprintf("pre%d", i), MaxChips: 1 + r.Intn(2), MaxChannels: r.Intn(channels + 1)}
		reg, err := m.CreateRegion(spec)
		fmt.Fprintf(h, "pre %+v: %v %v\n", spec, regionDies(m, reg), err)
	}

	tried := 0
	for chips := 1; chips <= dies+1; chips++ {
		for maxCh := 0; maxCh <= channels+1; maxCh++ {
			tried++
			fmt.Fprintf(h, "chips %d channels %d\n", chips, maxCh)
			reg, err := m.CreateRegion(RegionSpec{Name: "R", MaxChips: chips, MaxChannels: maxCh})
			fmt.Fprintf(h, "create: %v %v default %v\n", regionDies(m, reg), err, defaultDies(m))
			if err != nil {
				continue
			}
			grow := 1 + (chips+maxCh)%2
			err = m.GrowRegion("R", grow)
			fmt.Fprintf(h, "grow %d: %v %v default %v\n", grow, regionDies(m, reg), err, defaultDies(m))
			err = m.DropRegion("R")
			fmt.Fprintf(h, "drop: %v default %v\n", err, defaultDies(m))
			if err != nil {
				t.Fatal(err)
			}
			if err := m.VerifyIntegrity(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tried
}

// regionDies returns the dies of reg as Stats reports them (nil for no region).
func regionDies(m *Manager, reg *Region) []int {
	if reg == nil {
		return nil
	}
	rs, _ := m.Stats().RegionByName(reg.Name())
	return rs.Dies
}

func defaultDies(m *Manager) []int {
	rs, _ := m.Stats().RegionByName(DefaultRegionName)
	return rs.Dies
}
