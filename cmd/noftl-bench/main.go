// Command noftl-bench regenerates the paper's evaluation artifacts: the
// Figure 2 placement configuration, the Figure 3 performance comparison, the
// abstract's headline metrics and the gated experiments: ablation A6, batch
// DML and the chaos campaign.
//
// Usage:
//
//	noftl-bench -experiment figure3 -scale small
//	noftl-bench -experiment all -scale paper     (the full 64-die run)
//	noftl-bench -experiment batch_dml,a6 -json BENCH_small.json
//	noftl-bench -experiment figure3 -json out.json -baseline ci/BENCH_baseline.json
//
// With -json the results are additionally written as a machine-readable
// document ("-" writes JSON to stdout and suppresses the text tables), so
// successive runs can be diffed and the performance trajectory tracked.
// With -baseline the run is additionally compared against a previously
// recorded JSON document and the command exits non-zero when a gated metric
// (Figure 3's TPS and GC work, batch DML, A6, chaos) regresses by more than
// -baseline-threshold — the check CI runs on every pull request.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"noftl/internal/experiments"
)

// jsonDoc is the top-level layout of the -json output.
type jsonDoc struct {
	Scale       string                 `json:"scale"`
	GeneratedAt time.Time              `json:"generated_at"`
	Experiments map[string]interface{} `json:"experiments"`
	WallClockS  map[string]float64     `json:"wall_clock_seconds"`
}

// experimentNames is what -experiment accepts besides "all", in the order the
// experiments run.
var experimentNames = []string{"figure2", "figure3", "headline", "batch_dml", "a6", "chaos"}

// experimentList spells the accepted names for the flag help and the refusal.
func experimentList() string {
	return strings.Join(experimentNames, ", ") + " or all"
}

// selectExperiments parses the comma-separated value of -experiment.
func selectExperiments(arg string) (map[string]bool, error) {
	selected := map[string]bool{}
	for _, name := range strings.Split(arg, ",") {
		name = strings.TrimSpace(strings.ToLower(name))
		if name == "" {
			continue
		}
		if name != "all" && !slices.Contains(experimentNames, name) {
			return nil, fmt.Errorf("unknown experiment %q (want %s)", name, experimentList())
		}
		selected[name] = true
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("no experiment named (want %s)", experimentList())
	}
	return selected, nil
}

func main() {
	experiment := flag.String("experiment", "all", "comma-separated experiments to run: "+experimentList())
	scaleName := flag.String("scale", "small", "experiment scale: tiny, small or paper")
	seeds := flag.Int("seeds", 16, "seeded crash points for the chaos experiment")
	jsonPath := flag.String("json", "", "write machine-readable results to this file (\"-\" for stdout)")
	baselinePath := flag.String("baseline", "", "compare gated metrics against this baseline JSON and fail on regression")
	baselineThreshold := flag.Float64("baseline-threshold", 0.10, "relative regression tolerated against -baseline")
	flag.Parse()

	var scale experiments.Scale
	switch *scaleName {
	case "tiny":
		scale = experiments.ScaleTiny
	case "small":
		scale = experiments.ScaleSmall
	case "paper":
		scale = experiments.ScalePaper
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleName)
		os.Exit(2)
	}

	doc := jsonDoc{
		Scale:       fmt.Sprint(scale),
		GeneratedAt: time.Now().UTC(),
		Experiments: make(map[string]interface{}),
		WallClockS:  make(map[string]float64),
	}
	quiet := *jsonPath == "-"
	say := func(format string, args ...interface{}) {
		if !quiet {
			fmt.Printf(format, args...)
		}
	}

	run := func(key, name string, fn func() (interface{}, error)) {
		say("=== %s (scale %s) ===\n", name, scale)
		start := time.Now()
		result, err := fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", name, err)
			os.Exit(1)
		}
		doc.Experiments[key] = result
		doc.WallClockS[key] = time.Since(start).Seconds()
		say("(wall-clock %.1fs)\n\n", doc.WallClockS[key])
	}
	// printed prints a result that renders itself, for run to record.
	printed := func(res fmt.Stringer, err error) (interface{}, error) {
		if err == nil {
			say("%s\n", res.String())
		}
		return res, err
	}

	selected, err := selectExperiments(*experiment)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	want := func(name string) bool { return selected["all"] || selected[name] }

	// Figure 2, Figure 3 and the headline are views of one pair of runs.
	pair := sync.OnceValues(func() (experiments.Figure3, error) { return experiments.RunFigure3(scale) })
	if want("figure2") {
		run("figure2", "Figure 2: per-object device demand and the die plans made of it", func() (interface{}, error) {
			// The demand tpcc.Setup plans from comes from the traditional
			// profile, as in the paper; the demand under the regions plan in
			// effect shows what that plan costs where.
			f3, err := pair()
			if err != nil {
				return nil, err
			}
			runs := []experiments.Figure2{f3.Traditional.Figure2, f3.Regions.Figure2}
			for _, f2 := range runs {
				say("%s\n", f2.Table())
				if err := f2.CheckRecord(); err != nil {
					return nil, err
				}
			}
			say("%s\n", experiments.PaperFigure2Table(runs[0].Planned.TotalDies))
			return runs, nil
		})
	}
	if want("figure3") || want("headline") {
		run("figure3", "Figure 3: traditional vs multi-region placement under TPC-C", func() (interface{}, error) {
			f3, err := pair()
			if err != nil {
				return nil, err
			}
			say("%s\n", f3.Table())
			say("%s\n", f3.Headline().String())
			doc.Experiments["headline"] = f3.Headline()
			return f3, nil
		})
	}
	if want("batch_dml") {
		run("batch_dml", "Batch DML: InsertBatch/GetBatch vs row-at-a-time through the public API", func() (interface{}, error) {
			return printed(experiments.RunBatchDML(2000, 256))
		})
	}
	if want("a6") {
		run("a6", "A6: foreground vs background GC under a skewed update workload", func() (interface{}, error) {
			return printed(experiments.RunAblationBackgroundGC(6000, 30000))
		})
	}

	if want("chaos") {
		run("chaos", "Chaos: seeded crash-injection and recovery campaign", func() (interface{}, error) {
			return printed(experiments.RunChaos(*seeds))
		})
	}

	if *jsonPath != "" {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "marshal results: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if *jsonPath == "-" {
			os.Stdout.Write(data)
		} else {
			if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "write %s: %v\n", *jsonPath, err)
				os.Exit(1)
			}
			say("results written to %s\n", *jsonPath)
		}
	}

	if *baselinePath != "" {
		_, failures, err := compareBaseline(doc, *baselinePath, *baselineThreshold)
		if err != nil {
			fmt.Fprintf(os.Stderr, "baseline comparison: %v\n", err)
			os.Exit(1)
		}
		if len(failures) > 0 {
			fmt.Fprintf(os.Stderr, "PERFORMANCE REGRESSION vs %s (threshold %.0f%%):\n", *baselinePath, *baselineThreshold*100)
			for _, f := range failures {
				fmt.Fprintf(os.Stderr, "  %s\n", f)
			}
			os.Exit(1)
		}
		say("baseline check vs %s passed (threshold %.0f%%)\n", *baselinePath, *baselineThreshold*100)
	}
}

// baselineDoc mirrors the subset of the -json document the regression gate
// reads back.  Experiments absent from either side are skipped, so the gate
// only compares what both runs measured; a run that compares nothing fails.
type baselineDoc struct {
	Experiments struct {
		Figure3  *experiments.Figure3            `json:"figure3"`
		BatchDML *experiments.BatchDMLResult     `json:"batch_dml"`
		A6       *experiments.BackgroundGCResult `json:"a6"`
		Chaos    *experiments.ChaosResult        `json:"chaos"`
	} `json:"experiments"`
}

// compareBaseline re-marshals the current results and diffs the gated
// metrics against the baseline file: Figure 3's TPS, the batch-DML submission
// ratio and speedups and the chaos campaign's recovered rows must not drop,
// and Figure 3's GC work per commit, the A6 write amplification (and
// tail-latency win) and the chaos replay volume must not rise, by more than
// threshold relative.  It returns how many metrics it compared and those that
// regressed; comparing none is an error that names what did not match.
func compareBaseline(doc jsonDoc, path string, threshold float64) (int, []string, error) {
	baseRaw, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, err
	}
	var base baselineDoc
	if err := json.Unmarshal(baseRaw, &base); err != nil {
		return 0, nil, fmt.Errorf("parse %s: %w", path, err)
	}
	curRaw, err := json.Marshal(doc)
	if err != nil {
		return 0, nil, err
	}
	var cur baselineDoc
	if err := json.Unmarshal(curRaw, &cur); err != nil {
		return 0, nil, err
	}

	var failures, mismatches []string
	compared := 0
	// bound fails a metric that dropped below base*(1-threshold) when higher
	// is better, or rose above base*(1+threshold) when lower is.
	bound := func(metric string, curV, baseV float64, higherIsBetter bool) {
		if baseV <= 0 {
			return
		}
		compared++
		if higherIsBetter && curV < baseV*(1-threshold) || !higherIsBetter && curV > baseV*(1+threshold) {
			failures = append(failures, fmt.Sprintf("%s: %.3f, baseline %.3f (%+.1f%%)", metric, curV, baseV, (curV/baseV-1)*100))
		}
	}
	const higher, lower = true, false
	if f, b := cur.Experiments.Figure3, base.Experiments.Figure3; f != nil && b != nil && f.Scale != b.Scale {
		mismatches = append(mismatches, fmt.Sprintf("figure3 ran at the %s scale, the baseline's at the %s", f.Scale, b.Scale))
	} else if f != nil && b != nil {
		// The runs last a fixed simulated time, so a faster engine commits
		// more and collects more: GC work is gated per 1 000 commits.
		perKilo := func(n, commits int64) float64 { return 1000 * float64(n) / float64(max(commits, 1)) }
		for _, p := range []struct {
			name      string
			cur, base experiments.TPCCRun
		}{{"traditional", f.Traditional, b.Traditional}, {"regions", f.Regions, b.Regions}} {
			bound("figure3 "+p.name+" TPS", p.cur.TPS, p.base.TPS, higher)
			bound("figure3 "+p.name+" GC copybacks per 1000 commits",
				perKilo(p.cur.GCCopybacks, p.cur.Committed), perKilo(p.base.GCCopybacks, p.base.Committed), lower)
			bound("figure3 "+p.name+" GC erases per 1000 commits",
				perKilo(p.cur.GCErases, p.cur.Committed), perKilo(p.base.GCErases, p.base.Committed), lower)
		}
	}
	if c, b := cur.Experiments.BatchDML, base.Experiments.BatchDML; c != nil && b != nil {
		bound("batch_dml insert submission ratio", c.InsertSubmissionRatio, b.InsertSubmissionRatio, higher)
		bound("batch_dml insert speedup", c.InsertSpeedup, b.InsertSpeedup, higher)
		bound("batch_dml read speedup", c.GetSpeedup, b.GetSpeedup, higher)
	}
	if c, b := cur.Experiments.Chaos, base.Experiments.Chaos; c != nil && b != nil && c.Seeds != b.Seeds {
		mismatches = append(mismatches, fmt.Sprintf("chaos ran %d seeds, the baseline's %d", c.Seeds, b.Seeds))
	} else if c != nil && b != nil {
		// The campaign is fully deterministic for a fixed seed count, so the
		// replay volume is exactly reproducible: a rise means the periodic
		// checkpoints stopped bounding recovery.
		bound("chaos recovery replay bytes per seed", c.ReplayBytesPerSeed, b.ReplayBytesPerSeed, lower)
		bound("chaos rows recovered", float64(c.RowsRecovered), float64(b.RowsRecovered), higher)
	}
	if c, b := cur.Experiments.A6, base.Experiments.A6; c != nil && b != nil {
		bound("A6 write amplification (hot/cold separated)", c.SeparatedWA, b.SeparatedWA, lower)
		bound("A6 background p99 write latency", float64(c.BackgroundP99Write), float64(b.BackgroundP99Write), lower)
	}
	if compared == 0 {
		if len(mismatches) == 0 {
			mismatches = []string{"no experiment of this run is in it"}
		}
		return 0, nil, fmt.Errorf("compared no metric with %s: %s", path, strings.Join(mismatches, "; "))
	}
	return compared, failures, nil
}
