package flash

import "testing"

func TestGeometryDerivedQuantities(t *testing.T) {
	g := Geometry{Channels: 8, DiesPerChannel: 8, PlanesPerDie: 2, BlocksPerDie: 100, PagesPerBlock: 64, PageSize: 4096}
	if g.Dies() != 64 {
		t.Fatalf("Dies = %d", g.Dies())
	}
	if g.PagesPerDie() != 6400 {
		t.Fatalf("PagesPerDie = %d", g.PagesPerDie())
	}
	if g.TotalPages() != 64*6400 {
		t.Fatalf("TotalPages = %d", g.TotalPages())
	}
	if g.TotalBytes() != int64(64*6400)*4096 {
		t.Fatalf("TotalBytes = %d", g.TotalBytes())
	}
	if g.String() == "" {
		t.Fatal("empty String")
	}
}

func TestGeometryValidate(t *testing.T) {
	good := Geometry{Channels: 2, DiesPerChannel: 2, PlanesPerDie: 1, BlocksPerDie: 4, PagesPerBlock: 8, PageSize: 512}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
	bad := []Geometry{
		{},
		{Channels: 1, DiesPerChannel: 1, PlanesPerDie: 1, BlocksPerDie: 3, PagesPerBlock: 4, PageSize: 0},
		{Channels: 1, DiesPerChannel: 1, PlanesPerDie: 2, BlocksPerDie: 3, PagesPerBlock: 4, PageSize: 512},
		{Channels: 0, DiesPerChannel: 1, PlanesPerDie: 1, BlocksPerDie: 3, PagesPerBlock: 4, PageSize: 512},
		{Channels: 1, DiesPerChannel: 0, PlanesPerDie: 1, BlocksPerDie: 3, PagesPerBlock: 4, PageSize: 512},
		{Channels: 1, DiesPerChannel: 1, PlanesPerDie: 1, BlocksPerDie: 0, PagesPerBlock: 4, PageSize: 512},
		{Channels: 1, DiesPerChannel: 1, PlanesPerDie: 1, BlocksPerDie: 3, PagesPerBlock: 0, PageSize: 512},
		// More dies or pages per block than a 16-bit field of the space
		// manager's mapping entry holds.
		{Channels: 1 << 9, DiesPerChannel: 1<<7 + 1, PlanesPerDie: 1, BlocksPerDie: 3, PagesPerBlock: 4, PageSize: 512},
		{Channels: 1, DiesPerChannel: 1, PlanesPerDie: 1, BlocksPerDie: 3, PagesPerBlock: 1<<16 + 1, PageSize: 512},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: invalid geometry accepted: %+v", i, g)
		}
	}
}

func TestChannelOfDieSpreadsRoundRobin(t *testing.T) {
	g := Geometry{Channels: 4, DiesPerChannel: 4, PlanesPerDie: 1, BlocksPerDie: 1, PagesPerBlock: 1, PageSize: 512}
	counts := make(map[int]int)
	for d := 0; d < g.Dies(); d++ {
		ch := g.ChannelOfDie(d)
		if ch < 0 || ch >= g.Channels {
			t.Fatalf("die %d mapped to channel %d", d, ch)
		}
		counts[ch]++
	}
	for ch, n := range counts {
		if n != g.DiesPerChannel {
			t.Fatalf("channel %d has %d dies, want %d", ch, n, g.DiesPerChannel)
		}
	}
}

func TestValidAddr(t *testing.T) {
	g := Geometry{Channels: 1, DiesPerChannel: 2, PlanesPerDie: 1, BlocksPerDie: 3, PagesPerBlock: 4, PageSize: 512}
	valid := []Addr{{0, 0, 0}, {1, 2, 3}}
	invalid := []Addr{{-1, 0, 0}, {2, 0, 0}, {0, 3, 0}, {0, 0, 4}, {0, -1, 0}, {0, 0, -1}}
	for _, a := range valid {
		if !g.ValidAddr(a) {
			t.Errorf("valid addr rejected: %v", a)
		}
	}
	for _, a := range invalid {
		if g.ValidAddr(a) {
			t.Errorf("invalid addr accepted: %v", a)
		}
	}
	if !g.ValidBlock(BlockAddr{1, 2}) || g.ValidBlock(BlockAddr{1, 3}) || g.ValidBlock(BlockAddr{2, 0}) {
		t.Error("ValidBlock wrong")
	}
	if (Addr{1, 2, 3}).BlockAddr() != (BlockAddr{1, 2}) {
		t.Error("BlockAddr wrong")
	}
	if (Addr{1, 2, 3}).String() == "" || (BlockAddr{1, 2}).String() == "" {
		t.Error("empty String")
	}
}
