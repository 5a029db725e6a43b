// Command bench is the repository's benchmark (see README.md in this
// directory and BENCHMARK.json at the repository root).
//
//	bench --workload W --seed N --seconds S --trace 0|1 [--out DIR]   one run of one workload
//	bench --seed N --out DIR                                          every workload, untraced then traced, plus the fidelity table
//	bench --compare A B                                               compare two result directories against the bounds
//	bench --spec                                                      print BENCHMARK.json
//
// The last line of standard output of a single-workload run is the JSON
// result object the benchmark contract asks for; everything meant for people
// goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all of them, untraced then traced)")
		seed         = flag.Uint64("seed", 42, "seed of the workload's inputs")
		seconds      = flag.Int("seconds", runSeconds, "run length: number of fixed-work windows, each sized to take about a second")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
		outDir       = flag.String("out", "", "directory to write result files, CPU profiles and the fidelity table to")
		compare      = flag.Bool("compare", false, "compare the result directories A and B given as arguments")
		spec         = flag.Bool("spec", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()

	var err error
	switch {
	case *spec:
		_, err = os.Stdout.Write(benchmarkJSON())
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("--compare needs two result directories")
			break
		}
		var outside bool
		if outside, err = compareDirs(os.Stdout, flag.Arg(0), flag.Arg(1)); err == nil && outside {
			os.Exit(1)
		}
	case *workloadName != "":
		err = runOne(runOptions{workload: *workloadName, seed: *seed, seconds: *seconds, trace: *trace != 0, sz: fullSizes}, *outDir)
	default:
		err = runAll(*seed, *seconds, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// contractLine renders the one-line JSON object the benchmark contract wants
// as the last line of standard output.
func contractLine(res *result) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		metrics[d.Name] = value{v, d.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
}

// printResult writes one run's metrics, with unit, direction and bound, for
// people to read.
func printResult(res *result) {
	defs := endToEnd
	kind := "end-to-end (untraced)"
	if res.Trace {
		defs, kind = perLayer, "per-layer (traced)"
	}
	fmt.Fprintf(os.Stderr, "\n%s  seed %d  %d windows  %s  nproc %d GOMAXPROCS %d\n",
		res.Workload, res.Seed, res.Seconds, kind, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(os.Stderr, "  ops_attempted %d  ops_failed %d  correct %v\n", res.Attempted, res.Failed, res.Correct)
	for _, d := range defs {
		bound := ""
		if !res.Trace {
			bound = fmt.Sprintf("  bound %.0f%%", 100*d.Bound)
		}
		fmt.Fprintf(os.Stderr, "  %-34s %16.6g %-8s %s is better%s\n", d.Name, res.Metrics[d.Name], d.Unit, d.Better, bound)
	}
	if !res.Trace {
		fmt.Fprintf(os.Stderr, "  wall_ops_per_s over %.0f windows: quartiles %.6g .. %.6g\n",
			res.Extra["wall_windows"], res.Extra["wall_ops_per_s_q1"], res.Extra["wall_ops_per_s_q3"])
	}
}

// resultFileName names the file one run is saved under inside --out.
func resultFileName(res *result) string {
	mode := "untraced"
	if res.Trace {
		mode = "traced"
	}
	return fmt.Sprintf("%s.seed%d.%s.json", res.Workload, res.Seed, mode)
}

// saveResult writes the run (and its CPU profile, when traced) into dir.
func saveResult(dir string, res *result) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, resultFileName(res)), append(data, '\n'), 0o644); err != nil {
		return err
	}
	if res.CPUProfile != nil {
		name := fmt.Sprintf("%s.seed%d.cpu.pprof", res.Workload, res.Seed)
		return os.WriteFile(filepath.Join(dir, name), res.CPUProfile, 0o644)
	}
	return nil
}

// runOne is the contract's entry point: one workload, one mode, one JSON
// line.
func runOne(o runOptions, outDir string) error {
	res, err := runWorkload(o)
	if err != nil {
		return err
	}
	printResult(res)
	if err := saveResult(outDir, res); err != nil {
		return err
	}
	line, err := contractLine(res)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", line)
	return err
}

// runAll runs every workload untraced, then traced, and prints the fidelity
// table of the two TPC-C placements.
func runAll(seed uint64, seconds int, outDir string) error {
	untraced := make(map[string]*result)
	for _, traced := range []bool{false, true} {
		for _, w := range workloads {
			res, err := runWorkload(runOptions{workload: w.Name, seed: seed, seconds: seconds, trace: traced, sz: fullSizes})
			if err != nil {
				return err
			}
			printResult(res)
			if err := saveResult(outDir, res); err != nil {
				return err
			}
			if !traced {
				untraced[w.Name] = res
			}
		}
	}
	table := fidelityTable(untraced[wlTPCCRegions], untraced[wlTPCCTraditional])
	fmt.Print(table)
	if outDir != "" {
		return os.WriteFile(filepath.Join(outDir, fmt.Sprintf("fidelity.seed%d.txt", seed)), []byte(table), 0o644)
	}
	return nil
}
