package experiments

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"slices"
	"strings"
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
// uses: a SHA-256 of each run's core.Stats, dumped field by field (latency
// buckets included), must equal the recorded one.  A change that must not move
// what the space manager does leaves all three as they are.
func TestBackgroundGCRunsDigest(t *testing.T) {
	for _, run := range []struct {
		name                      string
		disableBG, disableHotCold bool
		digest                    string
	}{
		{"foreground", true, false, "9b160b6fcca2282aaedd85b8fadcf427442fecb3d6da602a6e88008687ba0912"},
		{"background", false, false, "66a75f5471924c604154374afcf5b4dcb3192450df1201cfd79fc9a4a43b40c9"},
		{"mixed", false, true, "4f7af4d188790074593e9eabbc0df0bb351fa4e70f6eba43718b20e29bf17af1"},
	} {
		st, err := bgGCRun(6000, 30000, 90, run.disableBG, run.disableHotCold)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(dumpFields(st)))); got != run.digest {
			t.Errorf("%s run: core.Stats digest %s, recorded %s\n%s", run.name, got, run.digest, dumpFields(st))
		}
	}
}

// dumpFields renders every leaf field of v that is not zero, unexported ones
// included, as "path=value", one a line, sorted by path; an embedded struct
// adds nothing to its fields' paths.  It is the root package's DumpFields,
// which tests outside that package cannot import: the dump does not depend on
// how the fields are laid out in structs.
func dumpFields(v any) string {
	var lines []string
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := range v.NumField() {
				f, p := v.Type().Field(i), path
				if !f.Anonymous {
					p = strings.TrimPrefix(path+"."+f.Name, ".")
				}
				walk(p, v.Field(i))
			}
		case reflect.Slice, reflect.Array:
			for i := range v.Len() {
				walk(fmt.Sprintf("%s[%d]", path, i), v.Index(i))
			}
		default:
			if !v.IsZero() {
				lines = append(lines, fmt.Sprintf("%s=%v", path, v))
			}
		}
	}
	walk("", reflect.ValueOf(v))
	slices.Sort(lines)
	return strings.Join(lines, "\n")
}
