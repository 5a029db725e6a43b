package storage

import (
	"testing"

	"noftl/internal/core"
	"noftl/internal/flash"
)

func newTestManager(t *testing.T) *core.Manager {
	t.Helper()
	dev, err := flash.NewDevice(flash.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return core.NewManager(dev, core.DefaultOptions())
}

func TestTablespaceExtentAllocation(t *testing.T) {
	mgr := newTestManager(t)
	const extent = 8
	ts := NewTablespace("tsTest", core.DefaultRegionID, extent, mgr)

	if ts.Name() != "tsTest" {
		t.Errorf("name = %q", ts.Name())
	}
	if ts.Region() != core.DefaultRegionID {
		t.Errorf("region = %d", ts.Region())
	}
	if ts.ExtentPages() != extent {
		t.Errorf("extent pages = %d, want %d", ts.ExtentPages(), extent)
	}

	// The first extent's pages are consecutive LPNs.
	first := ts.AllocatePage()
	for i := 1; i < extent; i++ {
		lpn := ts.AllocatePage()
		if lpn != first+core.LPN(i) {
			t.Fatalf("page %d of extent = lpn %d, want %d (consecutive)", i, lpn, first+core.LPN(i))
		}
	}

	// Page extent+1 opens a second extent, which starts at the space
	// manager's next free LPN, not right after the first extent.
	taken := mgr.AllocateLPNs(1)
	if taken != first+core.LPN(extent) {
		t.Fatalf("the manager handed out lpn %d after the extent, want %d", taken, first+core.LPN(extent))
	}
	if next := ts.AllocatePage(); next != taken+1 {
		t.Errorf("page %d = lpn %d, want %d (the first of a new extent)", extent, next, taken+1)
	}
}

func TestTablespaceDefaultExtentSize(t *testing.T) {
	mgr := newTestManager(t)
	ts := NewTablespace("tsDefault", core.DefaultRegionID, 0, mgr)
	if ts.ExtentPages() != DefaultExtentPages {
		t.Errorf("extent pages = %d, want default %d", ts.ExtentPages(), DefaultExtentPages)
	}
}

func TestTablespaceHintCarriesPlacement(t *testing.T) {
	mgr := newTestManager(t)
	ts := NewTablespace("tsHint", core.RegionID(3), 16, mgr)
	h := ts.Hint(42, flash.FlagIndex)
	if h.Region != core.RegionID(3) {
		t.Errorf("hint region = %d, want 3", h.Region)
	}
	if h.ObjectID != 42 {
		t.Errorf("hint object = %d, want 42", h.ObjectID)
	}
	if h.Flags != flash.FlagIndex {
		t.Errorf("hint flags = %#x, want FlagIndex", h.Flags)
	}
}

func TestTablespaceDistinctTablespacesDoNotOverlap(t *testing.T) {
	mgr := newTestManager(t)
	a := NewTablespace("A", core.DefaultRegionID, 4, mgr)
	b := NewTablespace("B", core.DefaultRegionID, 4, mgr)
	seen := make(map[core.LPN]string)
	for i := 0; i < 12; i++ {
		la := a.AllocatePage()
		if owner, dup := seen[la]; dup {
			t.Fatalf("lpn %d handed to both %s and A", la, owner)
		}
		seen[la] = "A"
		lb := b.AllocatePage()
		if owner, dup := seen[lb]; dup {
			t.Fatalf("lpn %d handed to both %s and B", lb, owner)
		}
		seen[lb] = "B"
	}
}
