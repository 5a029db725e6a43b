// Command noftl-trace inspects the JSONL event traces a database opened with
// WithTraceBuffer writes through Admin().TraceDump.
//
// Usage:
//
//	noftl-trace print   [-class flash,gc_step] [-die 3] [-region 1] [-n 50] trace.jsonl
//	noftl-trace filter  [-class host_write] [-die 0] trace.jsonl > subset.jsonl
//	noftl-trace summarize trace.jsonl
//
// print pretty-prints events one per line; filter re-emits the selected
// events as JSONL (composable with another noftl-trace invocation);
// summarize reports event counts by class, flash latency by priority class and
// the GC interference windows on host writes — the per-trace view of the
// paper's A6 experiment (per-die busy time is the device's:
// Stats().Device.PerDie).  With no file argument the trace is read from
// standard input.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"noftl/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	classFlag := fs.String("class", "", "comma-separated event classes to keep (e.g. flash,gc_step,host_write)")
	dieFlag := fs.Int("die", -1, "keep only events on this die")
	regionFlag := fs.Int("region", -1, "keep only events of this region id")
	limitFlag := fs.Int("n", 0, "print at most n events (0 = all)")

	switch cmd {
	case "print", "filter", "summarize":
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "noftl-trace: unknown command %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	_ = fs.Parse(os.Args[2:])

	events, err := load(fs.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "noftl-trace: %v\n", err)
		os.Exit(1)
	}
	events, err = filter(events, *classFlag, *dieFlag, *regionFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "noftl-trace: %v\n", err)
		os.Exit(2)
	}

	switch cmd {
	case "print":
		n := len(events)
		if *limitFlag > 0 && *limitFlag < n {
			n = *limitFlag
		}
		for _, e := range events[:n] {
			fmt.Println(format(e))
		}
		if n < len(events) {
			fmt.Printf("... (%d more events)\n", len(events)-n)
		}
	case "filter":
		if err := obs.WriteJSONL(os.Stdout, events); err != nil {
			fmt.Fprintf(os.Stderr, "noftl-trace: %v\n", err)
			os.Exit(1)
		}
	case "summarize":
		fmt.Print(obs.Summarize(events).String())
	}
}

// load reads the trace from the file argument, or stdin when none is given.
func load(args []string) ([]obs.Event, error) {
	if len(args) == 0 {
		return obs.LoadJSONL(os.Stdin)
	}
	f, err := os.Open(args[0])
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return obs.LoadJSONL(f)
}

// filter keeps the events matching the class/die/region selection.
func filter(events []obs.Event, classes string, die, region int) ([]obs.Event, error) {
	var classMask uint64
	if classes != "" {
		for _, name := range strings.Split(classes, ",") {
			c, ok := obs.ParseClass(strings.TrimSpace(name))
			if !ok {
				return nil, fmt.Errorf("unknown event class %q", strings.TrimSpace(name))
			}
			classMask |= 1 << c
		}
	}
	if classMask == 0 && die < 0 && region < 0 {
		return events, nil
	}
	out := events[:0]
	for _, e := range events {
		if classMask != 0 && classMask&(1<<e.Class) == 0 {
			continue
		}
		if die >= 0 && int(e.Die) != die {
			continue
		}
		if region >= 0 && int(e.Region) != region {
			continue
		}
		out = append(out, e)
	}
	return out, nil
}

// format renders one event as a human-readable line.
func format(e obs.Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%8d %-13s", e.Seq, e.Class)
	fmt.Fprintf(&b, " t=%s", formatNs(int64(e.Start)))
	if e.End != e.Start {
		fmt.Fprintf(&b, " +%s", formatNs(int64(e.End-e.Start)))
	}
	if e.Die >= 0 {
		fmt.Fprintf(&b, " die=%d", e.Die)
	}
	if e.Block >= 0 {
		fmt.Fprintf(&b, " blk=%d", e.Block)
	}
	if e.Page >= 0 {
		fmt.Fprintf(&b, " pg=%d", e.Page)
	}
	if e.Region >= 0 {
		fmt.Fprintf(&b, " rgn=%d", e.Region)
	}
	switch e.Class {
	case obs.ClassFlash:
		fmt.Fprintf(&b, " op=%d prio=%d", e.Op, e.Prio)
	case obs.ClassGCStep:
		if e.Op == obs.GCStepForeground {
			b.WriteString(" foreground")
		} else {
			b.WriteString(" background")
		}
	case obs.ClassGCVictim:
		fmt.Fprintf(&b, " valid=%d", e.A)
	case obs.ClassGCErase:
		fmt.Fprintf(&b, " erases=%d", e.A)
	case obs.ClassHostRead, obs.ClassHostWrite, obs.ClassBufMiss, obs.ClassBufEvict:
		fmt.Fprintf(&b, " lpn=%d", e.A)
	case obs.ClassBufWriteBack:
		if e.Op == obs.BufWriteBackGroup {
			fmt.Fprintf(&b, " pages=%d", e.A)
		} else {
			fmt.Fprintf(&b, " lpn=%d", e.A)
		}
	case obs.ClassWALAppend:
		fmt.Fprintf(&b, " lsn=%d bytes=%d", e.A, e.B)
	case obs.ClassWALSync:
		fmt.Fprintf(&b, " records=%d lsn=%d", e.A, e.B)
	case obs.ClassWear:
		fmt.Fprintf(&b, " minE=%d maxE=%d", e.A, e.B)
	}
	return b.String()
}

// formatNs renders a nanosecond count with a human unit.
func formatNs(ns int64) string {
	switch {
	case ns >= 1e9:
		return strconv.FormatFloat(float64(ns)/1e9, 'f', 3, 64) + "s"
	case ns >= 1e6:
		return strconv.FormatFloat(float64(ns)/1e6, 'f', 3, 64) + "ms"
	case ns >= 1e3:
		return strconv.FormatFloat(float64(ns)/1e3, 'f', 1, 64) + "µs"
	default:
		return strconv.FormatInt(ns, 10) + "ns"
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `noftl-trace inspects JSONL event traces written by noftl's Admin().TraceDump
(on a database opened with WithTraceBuffer).

usage:
  noftl-trace print     [flags] [trace.jsonl]   pretty-print events
  noftl-trace filter    [flags] [trace.jsonl]   re-emit selected events as JSONL
  noftl-trace summarize [flags] [trace.jsonl]   event counts, latency, GC interference

flags:
  -class flash,gc_step,...   keep only these event classes
  -die N                     keep only events on die N
  -region N                  keep only events of region N
  -n N                       print at most N events (print only)

With no file argument the trace is read from standard input.
`)
}
