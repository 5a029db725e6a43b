package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"noftl/internal/flash"
	"noftl/internal/sim"
)

// faultCampaign overwrites a working set under an armed fault plan until GC
// has run and some erases have failed, then checks that no live page was
// lost: every logical page still reads back its latest contents and the
// space manager's invariants hold.
// Every failed erase retires a block for good, so the device needs enough
// spare blocks to survive the whole campaign's worth of retirements.  The
// campaign runs once a page at a time and once in batches longer than a
// block, so a fault also lands where a batch crosses into a fresh block.
func faultCampaign(t *testing.T, plan flash.FaultPlan) {
	for _, batch := range []int{1, 20} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) { faultCampaignBatched(t, plan, batch) })
	}
}

func faultCampaignBatched(t *testing.T, plan flash.FaultPlan, batch int) {
	dev := smallDevice(t, 2, 32, 8)
	dev.Arm(plan)
	opts := DefaultOptions()
	opts.OverprovisionPct = 0.25
	m := NewManager(dev, opts)

	const pages = 80
	const rounds = 10
	start := m.AllocateLPNs(pages)
	now := sim.Time(0)
	latest := make([]byte, pages)
	for r := 0; r < rounds; r++ {
		for i := 0; i < pages; i += batch {
			writes := make([]PageWrite, batch)
			for j := range writes {
				latest[i+j] = byte(r*31 + i + j)
				writes[j] = PageWrite{LPN: start + LPN(i+j), Data: fillPage(dev, latest[i+j])}
			}
			done, err := m.WritePages(now, writes)
			if err != nil {
				t.Fatalf("round %d pages %d..%d: %v", r, i, i+batch-1, err)
			}
			now = done
		}
	}

	st := m.Stats()
	if st.GCErases == 0 {
		t.Fatal("workload never forced GC; the campaign exercised nothing")
	}
	if st.ValidPages != pages {
		t.Fatalf("valid pages = %d, want %d", st.ValidPages, pages)
	}
	for i := 0; i < pages; i++ {
		got, _, err := m.ReadPage(now, start+LPN(i), nil)
		if err != nil {
			t.Fatalf("read lpn %d after faults: %v", i, err)
		}
		if !bytes.Equal(got, fillPage(dev, latest[i])) {
			t.Fatalf("lpn %d lost its latest version under faults", i)
		}
	}
	if err := m.VerifyIntegrity(); err != nil {
		t.Fatalf("integrity after fault campaign: %v", err)
	}
}

// TestGCSurvivesEraseFailures makes every Nth erase fail — the victim block
// has already had its live pages relocated when the erase fires, so the
// failed (now bad) block must retire without losing data, and the victim
// scans must never re-pick it.
func TestGCSurvivesEraseFailures(t *testing.T) {
	faultCampaign(t, flash.FaultPlan{Seed: 1, FailEraseEvery: 5})
}

// TestGCSurvivesProgramFailures makes every Nth program fault transiently:
// host writes and GC copybacks must retry on a fresh page (retiring the
// block if the device marked it bad) without dropping the data being moved.
func TestGCSurvivesProgramFailures(t *testing.T) {
	faultCampaign(t, flash.FaultPlan{Seed: 2, FailProgramEvery: 17})
}

// TestGCSurvivesCombinedWear combines probabilistic program and erase faults
// — the worn-device regime where both happen interleaved with relocation.
func TestGCSurvivesCombinedWear(t *testing.T) {
	faultCampaign(t, flash.FaultPlan{Seed: 3, FailProgramProb: 0.02, FailEraseProb: 0.1})
}

// TestWritePagesRetriesTransientProgramFaults: one injected program fault
// fails that program and, through the device's sequential-programming check,
// every later program of the batch to the same block.  The batch must place
// those pages again and succeed, exactly as a lone WritePage does.
func TestWritePagesRetriesTransientProgramFaults(t *testing.T) {
	dev := smallDevice(t, 4, 32, 8)
	dev.Arm(flash.FaultPlan{Seed: 1, FailProgramEvery: 7})
	m := NewManager(dev, DefaultOptions())

	const n = 64
	start := m.AllocateLPNs(n)
	writes := make([]PageWrite, n)
	for i := range writes {
		writes[i] = PageWrite{LPN: start + LPN(i), Data: fillPage(dev, byte(i))}
	}
	if _, err := m.WritePages(0, writes); err != nil {
		t.Fatalf("WritePages under FailProgramEvery=7: %v", err)
	}
	reads, _ := m.ReadPages(0, []LPN{start, start + n/2, start + n - 1}, nil)
	for _, r := range reads {
		if r.Err != nil || !bytes.Equal(r.Data, fillPage(dev, byte(r.LPN-start))) {
			t.Fatalf("lpn %d after retried batch: err=%v", r.LPN, r.Err)
		}
	}
	for i := 0; i < n; i++ {
		if _, ok := m.Locate(start + LPN(i)); !ok {
			t.Fatalf("lpn %d not mapped after retried batch", start+LPN(i))
		}
	}
	if err := m.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.HostWrites != n || st.ValidPages != n {
		t.Fatalf("host writes %d, valid pages %d, want %d each", st.HostWrites, st.ValidPages, n)
	}
	if st.DevicePrograms != n {
		t.Fatalf("device programmed %d pages, want %d (failed programs leave the page erased)", st.DevicePrograms, n)
	}
}

// TestWritePagesAbortsOnCrash: a failure that is not transient still ends
// the batch with the error, and the pages that did land stay accounted.
func TestWritePagesAbortsOnCrash(t *testing.T) {
	dev := smallDevice(t, 4, 32, 8)
	dev.Arm(flash.FaultPlan{Seed: 1, CrashAfterOps: 10})
	m := NewManager(dev, DefaultOptions())
	const n = 32
	start := m.AllocateLPNs(n)
	writes := make([]PageWrite, n)
	for i := range writes {
		writes[i] = PageWrite{LPN: start + LPN(i), Data: fillPage(dev, byte(i))}
	}
	if _, err := m.WritePages(0, writes); !errors.Is(err, flash.ErrCrashed) {
		t.Fatalf("WritePages on a crashing device = %v, want ErrCrashed", err)
	}
	if got := m.Stats().HostWrites; got != 9 {
		t.Fatalf("host writes = %d, want the 9 programs that landed before the crash", got)
	}
	if err := m.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}
