package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"noftl/internal/experiments"
	"noftl/internal/tpcc"
)

func TestSelectExperiments(t *testing.T) {
	type testCase struct {
		arg  string
		want []string // nil: refused
	}
	cases := []testCase{
		{"all", []string{"all"}},
		{" Figure3, batch_dml ,,a6", []string{"figure3", "batch_dml", "a6"}},
		{strings.Join(experimentNames, ","), experimentNames},
		{"bogus", nil},
		{"a6,ftl", nil},
		{"batch", nil},
		{"tpcc", nil},
		{",", nil},
	}
	for _, name := range experimentNames {
		cases = append(cases, testCase{name, []string{name}})
	}
	for _, c := range cases {
		got, err := selectExperiments(c.arg)
		if c.want == nil {
			if err == nil {
				t.Errorf("-experiment %q accepted: %v", c.arg, got)
				continue
			}
			for _, name := range append([]string{"all"}, experimentNames...) {
				if !strings.Contains(err.Error(), name) {
					t.Errorf("-experiment %q: refusal %q does not list %q", c.arg, err, name)
				}
			}
			continue
		}
		if err != nil {
			t.Errorf("-experiment %q refused: %v", c.arg, err)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("-experiment %q selected %v, want %v", c.arg, got, c.want)
		}
		for _, name := range c.want {
			if !got[name] {
				t.Errorf("-experiment %q did not select %q", c.arg, name)
			}
		}
	}
}

// gateDoc is a -json document holding the named blocks of two: figure3 at the
// given scale with regions at regionsTPS, and chaos of the given seed count.
func gateDoc(scale experiments.Scale, regionsTPS float64, seeds int, blocks ...string) jsonDoc {
	run := func(tps float64) experiments.TPCCRun {
		return experiments.TPCCRun{Results: tpcc.Results{TPS: tps, Committed: 10000}, GCCopybacks: 5000, GCErases: 200}
	}
	all := map[string]interface{}{
		"figure3": experiments.Figure3{Scale: scale, Traditional: run(950), Regions: run(regionsTPS)},
		"chaos":   experiments.ChaosResult{Seeds: seeds, RowsRecovered: 4000, ReplayBytesPerSeed: 9000},
	}
	doc := jsonDoc{Scale: scale.String(), Experiments: map[string]interface{}{}}
	for _, key := range blocks {
		doc.Experiments[key] = all[key]
	}
	return doc
}

// writeBaseline records doc as a baseline in a temporary directory.
func writeBaseline(t *testing.T, doc jsonDoc) string {
	t.Helper()
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestBaselineGateIdenticalPasses(t *testing.T) {
	doc := gateDoc(experiments.ScaleSmall, 900, 16, "figure3", "chaos")
	compared, failures, err := compareBaseline(doc, writeBaseline(t, doc), 0.10)
	if err != nil || compared == 0 || len(failures) != 0 {
		t.Errorf("identical document: %d metrics compared, failures %q, error %v", compared, failures, err)
	}
}

func TestBaselineGateRegionsTPSDropFails(t *testing.T) {
	base := writeBaseline(t, gateDoc(experiments.ScaleSmall, 900, 16, "figure3", "chaos"))
	_, failures, err := compareBaseline(gateDoc(experiments.ScaleSmall, 720, 16, "figure3", "chaos"), base, 0.10)
	if err != nil || len(failures) != 1 || !strings.Contains(failures[0], "figure3 regions TPS") {
		t.Errorf("regions' TPS 20%% lower: failures %q, error %v", failures, err)
	}
}

// TestBaselineGateComparingNothingFails: a run whose blocks all differ from the
// baseline's in scale or seed count compares no metric, and that is an error
// naming the mismatch, not a pass.
func TestBaselineGateComparingNothingFails(t *testing.T) {
	base := writeBaseline(t, gateDoc(experiments.ScaleSmall, 900, 16, "figure3", "chaos"))
	for _, c := range []struct {
		mismatch string
		doc      jsonDoc
	}{
		{"tiny scale", gateDoc(experiments.ScaleTiny, 900, 16, "figure3")},
		{"2 seeds", gateDoc(experiments.ScaleSmall, 900, 2, "chaos")},
	} {
		compared, _, err := compareBaseline(c.doc, base, 0.10)
		if compared != 0 || err == nil || !strings.Contains(err.Error(), c.mismatch) {
			t.Errorf("%s: %d metrics compared, error %v", c.mismatch, compared, err)
		}
	}
}
