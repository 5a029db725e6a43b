package experiments

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// TestAblationBackgroundGC is the A6 acceptance check: background GC must
// reduce the p99 host-write latency (and watermark stalls) under a skewed
// update workload, and hot/cold separation must reduce measured write
// amplification.
func TestAblationBackgroundGC(t *testing.T) {
	res, err := RunAblationBackgroundGC(2000, 10000)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.String())
	if res.ForegroundStalls == 0 {
		t.Fatal("foreground run never stalled; device sizing is off")
	}
	if res.BackgroundSteps == 0 {
		t.Fatal("background run performed no GC steps")
	}
	if res.BackgroundStalls >= res.ForegroundStalls {
		t.Fatalf("background GC did not reduce watermark stalls: %d vs %d",
			res.BackgroundStalls, res.ForegroundStalls)
	}
	if res.BackgroundP99Write >= res.ForegroundP99Write {
		t.Fatalf("background GC did not reduce p99 write latency: %v vs %v",
			res.BackgroundP99Write, res.ForegroundP99Write)
	}
	if res.SeparatedWA >= res.MixedWA {
		t.Fatalf("hot/cold separation did not reduce write amplification: %.3f vs %.3f",
			res.SeparatedWA, res.MixedWA)
	}
	if res.String() == "" {
		t.Fatal("empty result string")
	}
}

// TestBackgroundGCRunsDigest pins A6's three runs at the sizing noftl-bench
// uses: a SHA-256 of each run's core.Stats in Go syntax (every field, latency
// buckets included) must equal the recorded one.  A change that must not move
// what the space manager does leaves all three as they are.
func TestBackgroundGCRunsDigest(t *testing.T) {
	for _, run := range []struct {
		name                      string
		disableBG, disableHotCold bool
		digest                    string
	}{
		{"foreground", true, false, "bba02b36740304c7ef552a60ef9c36e7571db2750e7d0207cf49e17169c93858"},
		{"background", false, false, "55896bb0f3546c5c212b642c3b31006eaf4f8dc28d710ea82d1f90d2b73c6912"},
		{"mixed", false, true, "10206edbedb7a7ed0bc93c245db8f1f91b9c78d111efc93a7f66c59f693ebfe4"},
	} {
		st, err := bgGCRun(6000, 30000, 90, run.disableBG, run.disableHotCold)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%#v", st)))); got != run.digest {
			t.Errorf("%s run: core.Stats digest %s, recorded %s\n%s", run.name, got, run.digest, st)
		}
	}
}
